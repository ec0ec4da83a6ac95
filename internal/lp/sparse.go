package lp

import (
	"fmt"
	"math"
	"math/rand"
)

// Solve solves the problem with a sparse revised simplex (product form of
// the inverse). It is the production solver: memory and per-iteration cost
// scale with the number of nonzeros, not m*n. See the package comment for
// the algorithmic inventory.
func Solve(p *Problem, opt *Options) (*Solution, error) {
	sf, flipped := p.toStandard()
	if sf.m == 0 {
		// Unconstrained: minimum at x=0 unless some c_j < 0 (then unbounded).
		for _, cj := range sf.c[:p.nv] {
			if cj < -optTol {
				return &Solution{Status: Unbounded}, nil
			}
		}
		return &Solution{Status: Optimal, X: make([]float64, p.nv), Duals: []float64{}}, nil
	}
	rowScale, colScale := sf.equilibrate(3)
	s := newSparseState(sf, opt)

	// Optional RHS perturbation to break degeneracy (CORGI's Geo-Ind rows
	// all have b=0, which otherwise causes severe stalling).
	bTrue := append([]float64(nil), sf.b...)
	if opt.perturb() {
		rng := rand.New(rand.NewSource(opt.seed()))
		for i := range sf.b {
			sf.b[i] += pertScale * (1 + rng.Float64())
		}
	}
	return s.run(p, flipped, bTrue, opt, rowScale, colScale), nil
}

const (
	optTol     = 1e-9  // feasibility/optimality tolerance
	pivotTol   = 1e-8  // ratio-test / reinversion pivot threshold
	dropTol    = 1e-12 // entries below this are dropped from etas
	pertScale  = 1e-8  // RHS perturbation magnitude
	stallLimit = 256   // degenerate pivots before switching to Bland
)

// refactorEtas is the pivot count between reinversions. It is a variable so
// tests can force frequent reinversion.
var refactorEtas = 80

// eta is one elementary transformation of the product-form inverse: the
// basis changed by pivoting the (already FTRAN-transformed) column w at
// position r.
type eta struct {
	r     int32
	idx   []int32
	vals  []float64
	pivot float64
}

type sparseState struct {
	sf *standardForm
	m  int
	n  int // structural + slack columns (artificials are n..n+m-1)

	basis    []int // basis[i] = column pivoted at row i
	inBasis  []bool
	etas     []eta
	xB       []float64 // current basic values, aligned with rows
	work     []float64 // dense scratch for FTRAN
	stamp    []int64   // touch epochs for work
	epoch    int64
	touched  []int32
	y        []float64 // dual scratch
	costs    []float64 // current phase costs, length n+m
	segCur   int
	iters    int
	maxIters int
}

func newSparseState(sf *standardForm, opt *Options) *sparseState {
	m, n := sf.m, sf.n
	return &sparseState{
		sf: sf, m: m, n: n,
		basis:    make([]int, m),
		inBasis:  make([]bool, n+m),
		xB:       make([]float64, m),
		work:     make([]float64, m),
		stamp:    make([]int64, m),
		y:        make([]float64, m),
		costs:    make([]float64, n+m),
		maxIters: opt.maxIters(m, n),
	}
}

// colOf returns column j including artificials (e_i for j = n+i).
func (s *sparseState) colOf(j int) (rows []int32, vals []float64) {
	if j < s.n {
		return s.sf.col(j)
	}
	i := int32(j - s.n)
	return []int32{i}, []float64{1}
}

// ftran computes w = B^{-1} a_j into s.work, returning the touched indices.
// The returned slice is invalidated by the next ftran.
func (s *sparseState) ftran(rows []int32, vals []float64) []int32 {
	s.epoch++
	s.touched = s.touched[:0]
	w := s.work
	for k, r := range rows {
		w[r] = vals[k]
		s.stamp[r] = s.epoch
		s.touched = append(s.touched, r)
	}
	for e := range s.etas {
		et := &s.etas[e]
		r := et.r
		if s.stamp[r] != s.epoch {
			continue
		}
		t := w[r]
		if t == 0 {
			continue
		}
		t /= et.pivot
		for k, j := range et.idx {
			if j == r {
				continue
			}
			if s.stamp[j] != s.epoch {
				s.stamp[j] = s.epoch
				s.touched = append(s.touched, j)
				w[j] = 0
			}
			w[j] -= et.vals[k] * t
		}
		w[r] = t
	}
	return s.touched
}

// ftranDense applies B^{-1} to a dense vector in place.
func (s *sparseState) ftranDense(x []float64) {
	for e := range s.etas {
		et := &s.etas[e]
		t := x[et.r]
		if t == 0 {
			continue
		}
		t /= et.pivot
		for k, j := range et.idx {
			if j == et.r {
				continue
			}
			x[j] -= et.vals[k] * t
		}
		x[et.r] = t
	}
}

// btran applies B^{-T} to a dense vector in place (reverse eta order).
func (s *sparseState) btran(y []float64) {
	for e := len(s.etas) - 1; e >= 0; e-- {
		et := &s.etas[e]
		r := et.r
		sum := 0.0
		for k, j := range et.idx {
			if j == r {
				continue
			}
			sum += et.vals[k] * y[j]
		}
		y[r] = (y[r] - sum) / et.pivot
	}
}

// appendEta records the pivot of the transformed column w (given by touched
// indices into s.work) at row r.
func (s *sparseState) appendEta(r int32, touched []int32) {
	w := s.work
	et := eta{r: r, pivot: w[r]}
	for _, j := range touched {
		v := w[j]
		if j != r && math.Abs(v) < dropTol {
			continue
		}
		et.idx = append(et.idx, j)
		et.vals = append(et.vals, v)
	}
	s.etas = append(s.etas, et)
}

// reinvert rebuilds the eta file from the current set of basic columns and
// re-associates each basic column with its pivot row (basis[r] = column
// pivoted at row r). Identity-like columns (artificials, slacks) pivot
// structurally; the residual "bump" is factored by threshold-Markowitz
// Gaussian elimination (factorBump), which both orders pivots for sparsity
// and bounds element growth. xB must be refreshed by the caller.
func (s *sparseState) reinvert() error {
	s.etas = s.etas[:0]
	m := s.m
	newBasis := make([]int, m)
	for i := range newBasis {
		newBasis[i] = -1
	}
	rowCoeff := map[int32]float64{} // singleton rows pivoted with coeff != 1
	var bump []int

	for _, j := range s.basis {
		switch {
		case j >= s.n: // artificial e_i: pivot at its own row, no eta
			i := j - s.n
			if newBasis[i] != -1 {
				return fmt.Errorf("lp: row %d pivoted twice during reinversion", i)
			}
			newBasis[i] = j
		default:
			rows, vals := s.sf.col(j)
			if len(rows) == 1 && newBasis[rows[0]] == -1 {
				// Slack (or any singleton) column: pivot at its row; only a
				// non-unit coefficient needs an eta.
				r := rows[0]
				newBasis[r] = j
				if vals[0] != 1 {
					s.etas = append(s.etas, eta{r: r, idx: []int32{r}, vals: []float64{vals[0]}, pivot: vals[0]})
					rowCoeff[r] = vals[0]
				}
			} else {
				bump = append(bump, j)
			}
		}
	}
	if len(bump) > 0 {
		if err := s.factorBump(bump, newBasis, rowCoeff); err != nil {
			return err
		}
	}
	for i, j := range newBasis {
		if j == -1 {
			return fmt.Errorf("lp: reinversion left row %d unpivoted", i)
		}
	}
	copy(s.basis, newBasis)
	return nil
}

// bumpEntry is a (row, value) pair used during bump factorization.
type bumpEntry struct {
	r int32
	v float64
}

// factorBump factors the non-triangular part of the basis with
// right-looking sparse Gaussian elimination: pivot columns are chosen by
// fewest active nonzeros (Markowitz-style), pivot rows by threshold partial
// pivoting (|a| >= 0.1 * column max, preferring low row degree). Each pivot
// emits a PFI eta identical to what sequential FTRAN-pivoting would have
// produced, so the existing FTRAN/BTRAN machinery applies unchanged.
func (s *sparseState) factorBump(bump []int, newBasis []int, rowCoeff map[int32]float64) error {
	nb := len(bump)
	cols := make([]map[int32]float64, nb)
	rowCols := make(map[int32]map[int]bool) // active row -> bump columns touching it
	activeCount := make([]int, nb)
	pivoted := make([]bool, nb)
	isActive := func(r int32) bool { return newBasis[r] == -1 }

	for ci, j := range bump {
		rows, vals := s.sf.col(j)
		mc := make(map[int32]float64, len(rows)*2)
		for k, r := range rows {
			v := vals[k]
			if c, ok := rowCoeff[r]; ok {
				v /= c // reflect the singleton eta scaling of row r
			}
			mc[r] = v
			if isActive(r) {
				set := rowCols[r]
				if set == nil {
					set = map[int]bool{}
					rowCols[r] = set
				}
				set[ci] = true
				activeCount[ci]++
			}
		}
		cols[ci] = mc
	}

	cand := make([]bumpEntry, 0, 64)
	for done := 0; done < nb; done++ {
		// Column choice: fewest active nonzeros (ties: lower index).
		ci := -1
		for k := 0; k < nb; k++ {
			if pivoted[k] {
				continue
			}
			if ci < 0 || activeCount[k] < activeCount[ci] {
				ci = k
			}
		}
		// Row choice within the column: threshold partial pivoting.
		cand = cand[:0]
		colMax := 0.0
		for r, v := range cols[ci] {
			if !isActive(r) {
				continue
			}
			cand = append(cand, bumpEntry{r: r, v: v})
			if av := math.Abs(v); av > colMax {
				colMax = av
			}
		}
		if colMax < 1e-11 {
			return fmt.Errorf("lp: numerically singular basis (bump column %d, max entry %g)", bump[ci], colMax)
		}
		sortBumpEntries(cand)
		rPiv, wPiv := int32(-1), 0.0
		bestDeg := -1
		for _, e := range cand {
			if math.Abs(e.v) < 0.99*colMax {
				continue
			}
			deg := len(rowCols[e.r])
			if rPiv < 0 || deg < bestDeg || (deg == bestDeg && math.Abs(e.v) > math.Abs(wPiv)) {
				rPiv, wPiv, bestDeg = e.r, e.v, deg
			}
		}
		// Emit the eta: the column's full current state (sorted for
		// reproducibility), pivot at rPiv.
		et := eta{r: rPiv, pivot: wPiv}
		full := make([]bumpEntry, 0, len(cols[ci]))
		for r, v := range cols[ci] {
			if r != rPiv && math.Abs(v) < dropTol {
				continue
			}
			full = append(full, bumpEntry{r: r, v: v})
		}
		sortBumpEntries(full)
		for _, e := range full {
			et.idx = append(et.idx, e.r)
			et.vals = append(et.vals, e.v)
		}
		s.etas = append(s.etas, et)
		newBasis[rPiv] = bump[ci]
		pivoted[ci] = true

		// Deactivate the pivot row.
		affected := rowCols[rPiv]
		delete(rowCols, rPiv)
		for ck := range affected {
			if !pivoted[ck] {
				activeCount[ck]--
			}
		}
		// Right-looking update of the remaining columns with an entry in
		// the pivot row: x_rPiv' = x_rPiv / wPiv; x_i -= w_i * x_rPiv'.
		for ck := range affected {
			if pivoted[ck] {
				continue
			}
			colK := cols[ck]
			xr, ok := colK[rPiv]
			if !ok || xr == 0 {
				continue
			}
			t := xr / wPiv
			colK[rPiv] = t
			for r, wv := range cols[ci] {
				if r == rPiv {
					continue
				}
				old, had := colK[r]
				nv := old - wv*t
				switch {
				case !had:
					if math.Abs(nv) < dropTol {
						continue
					}
					colK[r] = nv
					if isActive(r) {
						set := rowCols[r]
						if set == nil {
							set = map[int]bool{}
							rowCols[r] = set
						}
						set[ck] = true
						activeCount[ck]++
					}
				case math.Abs(nv) < dropTol:
					delete(colK, r)
					if isActive(r) {
						delete(rowCols[r], ck)
						activeCount[ck]--
					}
				default:
					colK[r] = nv
				}
			}
		}
	}
	return nil
}

func sortBumpEntries(es []bumpEntry) {
	for i := 1; i < len(es); i++ {
		v := es[i]
		j := i - 1
		for j >= 0 && es[j].r > v.r {
			es[j+1] = es[j]
			j--
		}
		es[j+1] = v
	}
}

// refreshXB recomputes xB = B^{-1} b.
func (s *sparseState) refreshXB() {
	copy(s.xB, s.sf.b)
	s.ftranDense(s.xB)
}

// computeDuals sets s.y = B^{-T} c_B for the current phase costs.
func (s *sparseState) computeDuals() {
	for i := 0; i < s.m; i++ {
		s.y[i] = s.costs[s.basis[i]]
	}
	s.btran(s.y)
}

// reducedCost returns d_j = c_j - y·a_j.
func (s *sparseState) reducedCost(j int) float64 {
	d := s.costs[j]
	rows, vals := s.colOf(j)
	for k, r := range rows {
		d -= s.y[r] * vals[k]
	}
	return d
}

// price selects an entering column with negative reduced cost, or -1 at
// optimality. In Bland mode it returns the lowest-index eligible column;
// otherwise it uses partial pricing (segment scan, most negative wins).
// allowArtificials is false in every phase (artificials never re-enter).
func (s *sparseState) price(bland bool) int {
	nCols := s.n
	if bland {
		for j := 0; j < nCols; j++ {
			if s.inBasis[j] {
				continue
			}
			if s.reducedCost(j) < -optTol {
				return j
			}
		}
		return -1
	}
	segSize := nCols / 16
	if segSize < 256 {
		segSize = 256
	}
	start := s.segCur
	scanned := 0
	for scanned < nCols {
		end := start + segSize
		best, bestD := -1, -optTol
		for j := start; j < end && j < nCols; j++ {
			if s.inBasis[j] {
				continue
			}
			if d := s.reducedCost(j); d < bestD {
				bestD = d
				best = j
			}
		}
		scanned += segSize
		start = end
		if start >= nCols {
			start = 0
		}
		if best >= 0 {
			s.segCur = start
			return best
		}
	}
	return -1
}

// phaseResult is the outcome of a primal simplex phase.
type phaseResult int

const (
	phaseOptimal phaseResult = iota
	phaseUnbounded
	phaseIterLimit
	phaseSingular
)

// primalLoop runs primal simplex pivots with the current costs until
// optimality/unboundedness. It maintains xB, basis, and the eta file.
//
// The ratio test is a Harris-style two-pass: pass 1 finds the tightest
// slightly-relaxed bound theta_max, pass 2 picks, among rows whose exact
// ratio does not exceed it, the one with the largest pivot element. CORGI's
// Geo-Ind constraints carry multipliers up to e^{eps*d} ~ 1e6, where the
// classic min-ratio rule happily pivots on 1e-6-scale elements and destroys
// the factorization; the two-pass rule is the standard cure.
func (s *sparseState) primalLoop() phaseResult {
	degenRun := 0
	confirmations := 0
	etaBase := len(s.etas)
	forceReinvert := false
	s.computeDuals()
	for ; s.iters < s.maxIters; s.iters++ {
		if forceReinvert || len(s.etas)-etaBase >= refactorEtas {
			if err := s.reinvert(); err != nil {
				return phaseSingular
			}
			etaBase = len(s.etas)
			forceReinvert = false
			s.refreshXB()
			s.computeDuals()
		}
		bland := degenRun >= stallLimit
		q := s.price(bland)
		if q < 0 {
			// Confirm optimality against a fresh factorization: drift in
			// the eta file can hide negative reduced costs.
			if len(s.etas) > etaBase && confirmations < 20 {
				confirmations++
				if err := s.reinvert(); err != nil {
					return phaseSingular
				}
				etaBase = len(s.etas)
				s.refreshXB()
				s.computeDuals()
				if q = s.price(bland); q < 0 {
					return phaseOptimal
				}
			} else {
				return phaseOptimal
			}
		}
		rows, vals := s.colOf(q)
		touched := s.ftran(rows, vals)
		// Pass 1: relaxed bound.
		const feasTol = 1e-9
		thetaMax := math.Inf(1)
		for _, i := range touched {
			wi := s.work[i]
			if wi <= pivotTol {
				continue
			}
			xb := s.xB[i]
			if xb < 0 {
				xb = 0
			}
			if t := (xb + feasTol) / wi; t < thetaMax {
				thetaMax = t
			}
		}
		if math.IsInf(thetaMax, 1) {
			return phaseUnbounded
		}
		// Pass 2: among admissible rows pick the most stable pivot (largest
		// |w|); in Bland mode pick the smallest leaving variable index.
		r := int32(-1)
		bestW := 0.0
		for _, i := range touched {
			wi := s.work[i]
			if wi <= pivotTol {
				continue
			}
			xb := s.xB[i]
			if xb < 0 {
				xb = 0
			}
			if xb/wi > thetaMax {
				continue
			}
			if bland {
				if r < 0 || s.basis[i] < s.basis[r] {
					r = i
					bestW = wi
				}
			} else if wi > bestW {
				r = i
				bestW = wi
			}
		}
		if r < 0 {
			return phaseUnbounded
		}
		theta := s.xB[r] / s.work[r]
		if theta < 0 {
			theta = 0
		}
		if theta < optTol {
			degenRun++
		} else {
			degenRun = 0
		}
		// Update basic values: xB -= theta * w; entering takes theta.
		if theta != 0 {
			for _, i := range touched {
				s.xB[i] -= theta * s.work[i]
				if s.xB[i] < 0 && s.xB[i] > -feasTol {
					s.xB[i] = 0
				}
			}
		}
		leaving := s.basis[r]
		s.inBasis[leaving] = false
		s.inBasis[q] = true
		s.basis[r] = q
		s.xB[r] = theta
		s.appendEta(r, touched)
		// A pivot much smaller than the column's largest transformed entry
		// signals dangerous element growth: refactor immediately.
		colMax := 0.0
		for _, i := range touched {
			if a := math.Abs(s.work[i]); a > colMax {
				colMax = a
			}
		}
		if bestW < 1e-7*colMax {
			forceReinvert = true
		}
		s.computeDuals()
	}
	return phaseIterLimit
}

// dualCleanup restores primal feasibility after the RHS perturbation is
// removed, using dual simplex pivots (the basis is dual feasible because it
// was primal optimal for the perturbed problem).
func (s *sparseState) dualCleanup() phaseResult {
	rowVec := make([]float64, s.m)
	for ; s.iters < s.maxIters; s.iters++ {
		// Leaving row: most negative basic value.
		r, worst := -1, -optTol
		for i := 0; i < s.m; i++ {
			if s.xB[i] < worst {
				worst = s.xB[i]
				r = i
			}
		}
		if r < 0 {
			return phaseOptimal
		}
		// rowVec = e_r^T B^{-1}.
		for i := range rowVec {
			rowVec[i] = 0
		}
		rowVec[r] = 1
		s.btran(rowVec)
		s.computeDuals()
		// Entering: min ratio d_j / (-alpha_j) over alpha_j < -pivotTol.
		q, bestRatio, bestAlpha := -1, math.Inf(1), 0.0
		for j := 0; j < s.n; j++ {
			if s.inBasis[j] {
				continue
			}
			rows, vals := s.sf.col(j)
			alpha := 0.0
			for k, i := range rows {
				alpha += rowVec[i] * vals[k]
			}
			if alpha >= -pivotTol {
				continue
			}
			d := s.reducedCost(j)
			if d < 0 {
				d = 0 // numerical dust; dual feasibility holds by construction
			}
			ratio := d / -alpha
			if ratio < bestRatio-optTol || (ratio < bestRatio+optTol && -alpha > -bestAlpha) {
				bestRatio, bestAlpha, q = ratio, alpha, j
			}
		}
		if q < 0 {
			return phaseUnbounded // primal infeasible row with no pivot: infeasible after cleanup
		}
		rows, vals := s.colOf(q)
		touched := s.ftran(rows, vals)
		wr := s.work[r]
		if math.Abs(wr) < pivotTol {
			return phaseSingular
		}
		theta := s.xB[r] / wr
		for _, i := range touched {
			s.xB[i] -= theta * s.work[i]
		}
		leaving := s.basis[r]
		s.inBasis[leaving] = false
		s.inBasis[q] = true
		s.basis[r] = q
		s.xB[r] = theta
		s.appendEta(int32(r), touched)
		if len(s.etas) >= refactorEtas*4 {
			if err := s.reinvert(); err != nil {
				return phaseSingular
			}
			s.refreshXB()
		}
	}
	return phaseIterLimit
}

// tryWarmBasis swaps the just-installed crash basis for a caller-supplied
// warm basis (Options.WarmBasis encoding). The warm basis is accepted only
// if it is structurally valid, factors without singularity, and is primal
// feasible for the current (possibly perturbed) RHS; any failure restores
// the crash state exactly and reports false. Basis membership is a column
// set, so warm bases survive re-equilibration and RHS perturbation across
// solves unchanged.
func (s *sparseState) tryWarmBasis(warm []int) bool {
	if len(warm) != s.m {
		return false
	}
	cols := make([]int, s.m)
	for i, w := range warm {
		j := w
		if w < 0 {
			r := -w - 1
			if r >= s.m {
				return false
			}
			j = s.n + r
		} else if j >= s.n {
			return false
		}
		cols[i] = j
	}
	seen := make([]bool, s.n+s.m)
	for _, j := range cols {
		if seen[j] {
			return false
		}
		seen[j] = true
	}
	crash := append([]int(nil), s.basis...)
	restore := func() {
		s.etas = s.etas[:0]
		copy(s.basis, crash)
		for j := range s.inBasis {
			s.inBasis[j] = false
		}
		for _, j := range s.basis {
			s.inBasis[j] = true
		}
		copy(s.xB, s.sf.b)
	}
	copy(s.basis, cols)
	for j := range s.inBasis {
		s.inBasis[j] = false
	}
	for _, j := range cols {
		s.inBasis[j] = true
	}
	if err := s.reinvert(); err != nil {
		restore()
		return false
	}
	s.refreshXB()
	for _, v := range s.xB {
		if v < -1e-7 {
			restore()
			return false
		}
	}
	return true
}

// run executes phase 1, phase 2 and, if perturbed, the exact cleanup. The
// standard form has been equilibrated; rowScale/colScale recover original
// units.
func (s *sparseState) run(p *Problem, flipped []bool, bTrue []float64, opt *Options, rowScale, colScale []float64) *Solution {
	// Initial basis: slack where the row has a +1 slack, artificial else.
	for i := 0; i < s.m; i++ {
		if s.sf.slackOf[i] >= 0 && s.sf.slackSign[i] == 1 {
			s.basis[i] = int(s.sf.slackOf[i])
		} else {
			s.basis[i] = s.n + i
		}
		s.inBasis[s.basis[i]] = true
	}
	copy(s.xB, s.sf.b)

	warm := false
	if wb := opt.warmBasis(); len(wb) > 0 {
		warm = s.tryWarmBasis(wb)
	}

	// Phase 1: minimize the sum of artificials (zero cost otherwise).
	nArt := 0
	for j := s.n; j < s.n+s.m; j++ {
		if s.inBasis[j] {
			s.costs[j] = 1
			nArt++
		}
	}
	if nArt > 0 {
		switch s.primalLoop() {
		case phaseIterLimit:
			return &Solution{Status: IterationLimit, Iterations: s.iters, Note: "phase1 iteration limit"}
		case phaseSingular:
			return &Solution{Status: NumericalFailure, Iterations: s.iters, Note: "phase1 singular"}
		case phaseUnbounded:
			return &Solution{Status: NumericalFailure, Iterations: s.iters, Note: "phase1 unbounded"}
		}
		infeas := 0.0
		for i := 0; i < s.m; i++ {
			if s.basis[i] >= s.n {
				infeas += s.xB[i]
			}
		}
		if infeas > 1e-7 {
			return &Solution{Status: Infeasible, Iterations: s.iters, Note: "phase1 positive artificials"}
		}
	}

	// Phase 2: the real objective. Artificials keep zero cost and are
	// barred from entering (price scans only j < n).
	for j := 0; j < s.n+s.m; j++ {
		s.costs[j] = 0
	}
	copy(s.costs[:s.sf.n], s.sf.c)
	switch s.primalLoop() {
	case phaseIterLimit:
		return &Solution{Status: IterationLimit, Iterations: s.iters, Note: "phase2 iteration limit"}
	case phaseUnbounded:
		return &Solution{Status: Unbounded, Iterations: s.iters, Note: "phase2 unbounded"}
	case phaseSingular:
		return &Solution{Status: NumericalFailure, Iterations: s.iters, Note: "phase2 singular"}
	}

	// Remove the perturbation and restore exact feasibility.
	if opt.perturb() {
		copy(s.sf.b, bTrue)
		s.refreshXB()
		switch s.dualCleanup() {
		case phaseIterLimit:
			return &Solution{Status: IterationLimit, Iterations: s.iters, Note: "cleanup iteration limit"}
		case phaseUnbounded:
			return &Solution{Status: Infeasible, Iterations: s.iters, Note: "cleanup infeasible"}
		case phaseSingular:
			return &Solution{Status: NumericalFailure, Iterations: s.iters, Note: "cleanup singular"}
		}
		// One more primal pass: cleanup may have left negative reduced costs.
		switch s.primalLoop() {
		case phaseIterLimit:
			return &Solution{Status: IterationLimit, Iterations: s.iters, Note: "post-cleanup iteration limit"}
		case phaseUnbounded:
			return &Solution{Status: Unbounded, Iterations: s.iters, Note: "post-cleanup unbounded"}
		case phaseSingular:
			return &Solution{Status: NumericalFailure, Iterations: s.iters, Note: "post-cleanup singular"}
		}
	}

	nv := p.NumVars()
	x := make([]float64, nv)
	for i := 0; i < s.m; i++ {
		if j := s.basis[i]; j < nv {
			v := s.xB[i] * colScale[j]
			if v < 0 {
				v = 0
			}
			x[j] = v
		}
	}
	// Self-check in original units; refuse to report a corrupted point.
	if _, bad := p.CheckFeasible(x, 1e-6); bad > 0 {
		return &Solution{Status: NumericalFailure, Iterations: s.iters, Note: "final solution infeasible"}
	}
	s.computeDuals()
	duals := make([]float64, s.m)
	for i := 0; i < s.m; i++ {
		yv := s.y[i] * rowScale[i]
		if flipped[i] {
			yv = -yv
		}
		duals[i] = yv
	}
	basisOut := make([]int, s.m)
	for i, j := range s.basis {
		if j >= s.n {
			basisOut[i] = -(j - s.n + 1)
		} else {
			basisOut[i] = j
		}
	}
	return &Solution{
		Status:     Optimal,
		X:          x,
		Objective:  p.Eval(x),
		Duals:      duals,
		Iterations: s.iters,
		Basis:      basisOut,
		Warm:       warm,
	}
}
