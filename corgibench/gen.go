package main

// The open-loop load generator. A phase schedules jobs at a fixed rate:
// job k is due at start + k/rate whatever happened to earlier jobs. Jobs
// are pinned to lanes (one goroutine and one client connection each) by
// the workload — a user always maps to the same lane, so per-user order
// and therefore the seeded draw sequences stay deterministic. A lane
// serves its jobs in due order; every latency is timed from when the job
// was due, so a stall is charged to every job queued behind it.

import (
	"sort"
	"sync"
	"time"
)

// Job classes: the workload's primary request and forest fetches.
const (
	classPrimary = iota
	classForest
	numClasses
)

// outcome is what executing one job returned.
type outcome struct {
	class int
	ok    bool
}

// phase describes one open-loop phase.
type phase struct {
	name  string
	rate  float64 // jobs per second across all lanes
	dur   time.Duration
	lanes int
	// window is the length of the latency windows p99 is judged over.
	window time.Duration
	// count, when positive, makes the phase closed-loop: exactly count
	// jobs, each lane sending its next job as soon as the previous one
	// answered (rate and dur are ignored, latencies are timed from the
	// send). A fixed job list makes the phase's work identical on every
	// run of a seed, however fast the machine is that day.
	count int
	// lane maps the phase's k-th job to its lane (-1 skips the job); exec
	// runs it.
	lane func(k int) int
	exec func(lane, k int) outcome
}

// phaseResult is one phase's generator-side record.
type phaseResult struct {
	name       string
	rate       float64
	sent, ok   int
	failed     int
	lat        [numClasses][]float64 // ms, from due to done
	windows    [][]float64           // primary-class latencies by window of due time
	late       []float64             // ms each job was sent after its due time, in due order
	lag        []float64             // ms the generator itself ran late
	backlogEnd int                   // jobs still unsent when the phase's schedule ended
	// ops counts the operations costs are divided by: the jobs sent,
	// unless the workload counts finer units (report items of a frame);
	// wire counts the payload bytes they exchanged (set by the workload).
	ops, wire     int
	sentByClass   [numClasses]int
	failedByClass [numClasses]int
}

// lagP99 is the generator's own p99 lateness in ms.
func (p *phaseResult) lagP99() float64 { return quantile(append([]float64(nil), p.lag...), 0.99) }

// failRatio is failed ÷ attempted for the primary class.
func (p *phaseResult) failRatio() float64 {
	return ratio(float64(p.failedByClass[classPrimary]), float64(p.sentByClass[classPrimary]))
}

// behind reports whether the generator fell behind its schedule: its own
// median lateness exceeds half the latency limit, or the backlog grew —
// the median send lateness of the last quarter of the phase exceeds that
// of the first quarter by more than half the limit. (Its p99 lateness is
// reported, not judged: on a shared machine single late wake-ups are
// common and say nothing about whether the schedule was kept.)
func (p *phaseResult) behind(limitMs float64) bool {
	return median(p.lag) > limitMs/2 || p.backlogGrowth() > limitMs/2
}

// backlogGrowth is the growth in median send lateness, first quarter of
// the phase to last, in ms.
func (p *phaseResult) backlogGrowth() float64 {
	q := len(p.late) / 4
	if q == 0 {
		return 0
	}
	return median(p.late[len(p.late)-q:]) - median(p.late[:q])
}

// windowP99 is the median over the phase's windows of each window's p99.
func (p *phaseResult) windowP99() float64 {
	var xs []float64
	for _, w := range p.windows {
		if len(w) > 0 {
			xs = append(xs, quantile(append([]float64(nil), w...), 0.99))
		}
	}
	return median(xs)
}

// run executes the phase and waits for every lane to finish.
func (ph *phase) run() *phaseResult {
	n := int(ph.rate * ph.dur.Seconds())
	if ph.count > 0 {
		n = ph.count
	}
	if n < 1 {
		n = 1
	}
	perLane := make([][]int, ph.lanes)
	for k := 0; k < n; k++ {
		if l := ph.lane(k); l >= 0 {
			perLane[l] = append(perLane[l], k)
		}
	}
	type laneRec struct {
		lat        [numClasses][]float64
		win        [][]float64
		lag        []float64
		late       []lateRec
		sent, ok   [numClasses]int
		backlogEnd int
	}
	recs := make([]laneRec, ph.lanes)
	start := time.Now().Add(2 * time.Millisecond)
	end := start.Add(ph.dur)
	var wg sync.WaitGroup
	for l := range perLane {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			rec := &recs[l]
			timer, err := newLaneTimer()
			if err != nil {
				panic(err) // a kernel without timerfd cannot run the benchmark
			}
			defer timer.close()
			prevDone := start
			for _, k := range perLane[l] {
				var due time.Time
				if ph.count > 0 {
					due = time.Now()
				} else {
					due = start.Add(time.Duration(float64(k) / ph.rate * float64(time.Second)))
					if err := timer.sleepUntil(due); err != nil {
						panic(err)
					}
				}
				sendAt := time.Now()
				ready := due
				if prevDone.After(ready) {
					ready = prevDone
				}
				rec.lag = append(rec.lag, float64(sendAt.Sub(ready))/1e6)
				rec.late = append(rec.late, lateRec{k, float64(sendAt.Sub(due)) / 1e6})
				if ph.count == 0 && sendAt.After(end) {
					rec.backlogEnd++
				}
				out := ph.exec(l, k)
				done := time.Now()
				prevDone = done
				lat := float64(done.Sub(due)) / 1e6
				rec.lat[out.class] = append(rec.lat[out.class], lat)
				if out.class == classPrimary {
					w := int(due.Sub(start) / ph.window)
					for len(rec.win) <= w {
						rec.win = append(rec.win, nil)
					}
					rec.win[w] = append(rec.win[w], lat)
				}
				rec.sent[out.class]++
				if out.ok {
					rec.ok[out.class]++
				}
			}
		}(l)
	}
	wg.Wait()
	res := &phaseResult{name: ph.name, rate: ph.rate}
	var late []lateRec
	for _, rec := range recs {
		late = append(late, rec.late...)
		for c := 0; c < numClasses; c++ {
			res.lat[c] = append(res.lat[c], rec.lat[c]...)
			res.sent += rec.sent[c]
			res.ok += rec.ok[c]
			res.sentByClass[c] += rec.sent[c]
			res.failedByClass[c] += rec.sent[c] - rec.ok[c]
		}
		res.lag = append(res.lag, rec.lag...)
		for w, xs := range rec.win {
			for len(res.windows) <= w {
				res.windows = append(res.windows, nil)
			}
			res.windows[w] = append(res.windows[w], xs...)
		}
		res.backlogEnd += rec.backlogEnd
	}
	res.failed = res.sent - res.ok
	res.ops = res.sent
	sort.Slice(late, func(a, b int) bool { return late[a].k < late[b].k })
	for _, l := range late {
		res.late = append(res.late, l.ms)
	}
	return res
}

// lateRec is one job's send lateness, keyed by its schedule index.
type lateRec struct {
	k  int
	ms float64
}

// ladder is a fixed geometric rate ladder: rung i offers base·step^i.
type ladder struct {
	base, step float64
	rungs      int
}

func (l ladder) rate(i int) float64 {
	r := l.base
	for ; i > 0; i-- {
		r *= l.step
	}
	return r
}

// stepPasses is the sustained-rate criterion for one rung: the p99 of the
// primary class (median over the step's windows) within the latency
// limit, fail ratio at most 0.1%, no growing backlog, and a generator that
// kept its schedule.
func stepPasses(p *phaseResult, limitMs float64) bool {
	return p.sentByClass[classPrimary] > 0 &&
		p.windowP99() <= limitMs &&
		p.failRatio() <= 0.001 &&
		!p.behind(limitMs)
}

// climb runs ladder passes until budget is spent and returns the median
// of the pass results, the pass results, and every step run. A pass
// climbs until two consecutive rungs fail and yields the highest rung that
// passed (one stray failure does not end it). The first pass starts at rung
// start visiting every stride-th rung; each later pass visits every rung
// from two below the previous knee, so the knee is measured several times
// within one run. A new pass starts only while five more steps fit in the
// budget, and no step starts after it (a pass cut short reports the
// highest rung it passed).
func (l ladder) climb(budget, stepDur time.Duration, start, stride int, step func(rate float64) *phaseResult, limitMs float64) (float64, []float64, []*phaseResult) {
	deadline := time.Now().Add(budget)
	var passes []float64
	var steps []*phaseResult
	from := start
	for {
		best, fails := -1, 0
		for i := from; i < l.rungs && fails < 2 && time.Now().Before(deadline); i += stride {
			p := step(l.rate(i))
			steps = append(steps, p)
			if stepPasses(p, limitMs) {
				best, fails = i, 0
			} else {
				fails++
			}
		}
		if best < 0 {
			best = 0 // nothing passed: report the ladder's floor
		}
		passes = append(passes, l.rate(best))
		if time.Until(deadline) < 5*stepDur {
			break
		}
		from, stride = best-2, 1
		if from < 0 {
			from = 0
		}
	}
	return median(passes), passes, steps
}

// merge adds q's counts and samples into p.
func merge(p, q *phaseResult) {
	p.sent += q.sent
	p.ok += q.ok
	p.failed += q.failed
	for c := 0; c < numClasses; c++ {
		p.lat[c] = append(p.lat[c], q.lat[c]...)
		p.sentByClass[c] += q.sentByClass[c]
		p.failedByClass[c] += q.failedByClass[c]
	}
	p.windows = append(p.windows, q.windows...)
	p.late = append(p.late, q.late...)
	p.lag = append(p.lag, q.lag...)
	p.backlogEnd += q.backlogEnd
	p.ops += q.ops
	p.wire += q.wire
}
