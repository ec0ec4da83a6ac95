// Command corgi-server runs the CORGI cloud side (Sec. 5.1) as a
// multi-region sharded service: each named region owns its own location
// tree, public priors, service targets, and concurrent generation engine,
// bootstrapped lazily on first request (or eagerly with -eager). Users
// never send locations or preference contents — only a region name, the
// privacy level, and a prune allowance.
//
// Regions come from -regions (comma-separated builtin metro names; see
// -list-regions) or -region-config (a JSON array of region specs, each
// overriding only what it needs). Omitting ?region= on the wire addresses
// the first configured region, so pre-sharding clients keep working.
//
// Generation runs on one engine shard per region (see ARCHITECTURE.md):
// -workers bounds parallel subtree LP solves per shard, -cache-mb bounds
// each shard's LRU cache, and -warmup N precomputes every (level,
// delta<=N) forest at bootstrap time. -store DIR attaches the persistent
// forest store: shards hydrate from snapshots at bootstrap (a restart or
// a corgi-gen precompute means zero LP solves for covered forests) and
// newly solved forests write back asynchronously. /healthz reports
// liveness, /v1/regions the region set, and /v1/stats per-region plus
// aggregate engine counters (including store hit/miss/write counts and
// report-session/alias-table counters). SIGINT/SIGTERM drain in-flight
// requests gracefully and flush pending store writes.
//
// Beyond forest distribution, the server runs the report pipeline: POST
// /v1/report (and batch /v1/reports) evaluates an inline policy, prunes,
// and draws obfuscated reports server-side from per-user sessions with
// O(1) alias-table sampling. Sessions are mobility-aware: a user whose
// reports leave their bound subtree re-anchor the resident session (same
// RNG stream, fresh subtree binding) instead of fragmenting into one
// session per subtree. -max-sessions bounds each region's live session
// LRU; -max-report-count caps draws per request.
//
// -budget-eps EPS enables per-user epsilon-budget accounting: each report
// draw charges the region's epsilon against the user's sliding -budget-
// window cap (linear composition, the sequential-composition leakage of
// repeated location reports), and a user over cap gets 429 Too Many
// Requests until spend slides out of the window. budget_* counters appear
// in /v1/stats.
//
// -degraded-serving kills the cold-path latency cliff: a report request
// whose forest entry misses both the cache and the store is answered
// immediately from a discretized planar-Laplace fallback — same epsilon
// guarantee, lower utility — while the real LP solve runs in the
// background; the optimal entry atomically replaces the fallback, resident
// sessions upgrade without resetting their RNG streams, and responses
// carry a "degraded" flag until then. degraded_* counters appear in
// /v1/stats.
//
// POST /v1/lease (and the stream transport's LEASE frame) issues
// client-side draw leases: one request pre-pays n draws' epsilon in a
// single budget charge, and the response carries the user's customized
// distribution rows plus an HMAC-signed token (user, subtree, draw cap,
// RNG position, expiry) so the device draws locally at memory speed and
// renews when the cap runs out — see internal/clientdraw. -lease-secret
// fixes the token-signing key (hex; default: a random per-process key,
// meaning leases do not survive a restart) and -lease-ttl bounds token
// lifetime. lease_* counters appear in /v1/stats.
//
// -stream-addr ADDR additionally serves the report pipeline over the
// corgi-stream binary transport (internal/stream): length-prefixed frames
// on persistent TCP connections, answering from the same registry —
// sessions, budgets, and error classes identical to HTTP — at a fraction
// of the per-report cost. Stream counters merge into /v1/stats, and
// shutdown drains stream connections (GOODBYE frames) alongside HTTP.
//
// Usage:
//
//	corgi-server [-addr :8080] [-stream-addr :8081]
//	             [-regions sf,nyc,la | -region-config regions.json]
//	             [-eps 15] [-height 2] [-spacing 0.1] [-iters 5] [-targets 20]
//	             [-checkins gowalla.txt] [-seed 0] [-uniform-priors]
//	             [-workers 0] [-cache-mb 256] [-warmup -1] [-eager]
//	             [-store ./forests] [-max-batch 64] [-max-sessions 4096]
//	             [-max-report-count 1000] [-budget-eps 0] [-budget-window 1h]
//	             [-lease-secret HEX] [-lease-ttl 1m] [-degraded-serving]
//	             [-read-timeout 30s] [-write-timeout 10m] [-idle-timeout 2m]
//	             [-request-timeout 5m]
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"corgi/internal/budget"
	"corgi/internal/cluster"
	"corgi/internal/core"
	"corgi/internal/proto"
	"corgi/internal/registry"
	"corgi/internal/store"
	"corgi/internal/stream"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	streamAddr := flag.String("stream-addr", "", "corgi-stream binary transport listen address (empty: disabled)")
	regions := flag.String("regions", "", "comma-separated builtin region names (default: sf)")
	regionConfig := flag.String("region-config", "", "JSON region-spec file (overrides -regions)")
	listRegions := flag.Bool("list-regions", false, "print builtin region names and exit")
	eps := flag.Float64("eps", 15, "default Geo-Ind privacy budget (km^-1)")
	height := flag.Int("height", 2, "default tree height (2 -> 49 leaves, 3 -> 343)")
	spacing := flag.Float64("spacing", 0.1, "default leaf cell center spacing in km")
	iters := flag.Int("iters", 5, "default Algorithm-1 robust iterations")
	targetsN := flag.Int("targets", 20, "default service target count per region")
	checkins := flag.String("checkins", "", "Gowalla check-in file for the default region's priors")
	seed := flag.Int64("seed", 0, "synthetic-prior seed override (0: per-region name hash)")
	uniformPriors := flag.Bool("uniform-priors", false, "use uniform priors everywhere (fast bootstrap)")
	workers := flag.Int("workers", 0, "parallel subtree solves per region shard (0: GOMAXPROCS)")
	cacheMB := flag.Int64("cache-mb", 256, "per-shard generated-entry cache bound in MiB")
	warmup := flag.Int("warmup", -1, "precompute all levels for deltas 0..N at shard bootstrap (-1: off)")
	storeDir := flag.String("store", "", "persistent forest store directory (populate offline with corgi-gen)")
	eager := flag.Bool("eager", false, "bootstrap every region at startup instead of on first request")
	maxBatch := flag.Int("max-batch", proto.DefaultMaxBatch, "max items per POST /v1/forests or /v1/reports request")
	maxSessions := flag.Int("max-sessions", 0, "live report sessions per region shard (0: default 4096)")
	maxReportCount := flag.Int("max-report-count", proto.DefaultMaxReportCount, "max draws per POST /v1/report request")
	budgetEps := flag.Float64("budget-eps", 0, "per-user epsilon budget per sliding window (0: accounting off)")
	budgetWindow := flag.Duration("budget-window", time.Hour, "sliding epsilon-budget window")
	budgetUsers := flag.Int("budget-users", 0, "tracked users per region budget accountant (0: default 65536)")
	leaseSecret := flag.String("lease-secret", "", "hex key for lease-token signing (empty: random per-process key)")
	leaseTTL := flag.Duration("lease-ttl", registry.DefaultLeaseTTL, "draw-lease token lifetime")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "HTTP server read timeout")
	writeTimeout := flag.Duration("write-timeout", 10*time.Minute, "HTTP server write timeout")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "HTTP server idle timeout")
	requestTimeout := flag.Duration("request-timeout", 5*time.Minute, "per-request generation timeout (0: none)")
	degradedServing := flag.Bool("degraded-serving", false,
		"serve cold report requests immediately from a planar-Laplace fallback (same epsilon bound, lower utility) while the LP solve runs in the background")
	clusterPeers := flag.String("cluster-peers", "",
		"full cluster member list, comma-separated streamAddr[=httpURL] entries (identical on every node); empty: single-node mode")
	clusterSelf := flag.String("cluster-self", "",
		"this node's own entry in -cluster-peers (its stream address); required with -cluster-peers")
	flag.Parse()

	if *listRegions {
		fmt.Println(strings.Join(registry.BuiltinNames(), "\n"))
		os.Exit(0)
	}
	if *targetsN < 1 {
		log.Fatalf("targets: count must be >= 1, got %d", *targetsN)
	}

	// registry.BuildSpecs is shared with cmd/corgi-gen so both binaries
	// derive identical spec hashes from identical flags — a store
	// populated offline is hit here by construction.
	specs, err := registry.BuildSpecs(*regions, *regionConfig, registry.SpecDefaults{
		Epsilon: *eps, Height: *height, LeafSpacingKm: *spacing, Iterations: *iters,
		Targets: *targetsN, Seed: *seed, UniformPriors: *uniformPriors, CheckinsPath: *checkins,
	})
	if err != nil {
		log.Fatalf("regions: %v", err)
	}
	var st *store.Store
	if *storeDir != "" {
		if st, err = store.Open(*storeDir); err != nil {
			log.Fatalf("store: %v", err)
		}
	}
	var secret []byte
	if *leaseSecret != "" {
		if secret, err = hex.DecodeString(*leaseSecret); err != nil {
			log.Fatalf("lease-secret: %v", err)
		}
	}
	reg, err := registry.New(specs, registry.Options{
		Engine: core.EngineOptions{
			Workers:         *workers,
			CacheBytes:      *cacheMB << 20,
			DegradedServing: *degradedServing,
		},
		WarmupDelta: *warmup,
		Store:       st,
		SessionCap:  *maxSessions,
		Budget: budget.Config{
			LimitEps: *budgetEps,
			Window:   *budgetWindow,
			MaxUsers: *budgetUsers,
		},
		LeaseSecret: secret,
		LeaseTTL:    *leaseTTL,
	})
	if err != nil {
		log.Fatalf("registry: %v", err)
	}
	h, err := proto.NewMultiHandler(reg)
	if err != nil {
		log.Fatalf("handler: %v", err)
	}
	h.Timeout = *requestTimeout
	h.MaxBatch = *maxBatch
	h.MaxReportCount = *maxReportCount

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *eager {
		start := time.Now()
		if err := reg.BootstrapAll(ctx); err != nil {
			log.Fatalf("eager bootstrap: %v", err)
		}
		agg := reg.AggregateStats()
		log.Printf("bootstrapped %d regions: %d solves, %d entries hydrated from store, %d cached entries (%.1f MiB) in %v",
			reg.Bootstraps(), agg.Solves, agg.StoreHydrated, agg.CacheEntries, float64(agg.CacheBytes)/(1<<20),
			time.Since(start).Round(time.Millisecond))
	}

	// The stream listener shares the registry (and so the report pipeline,
	// sessions, and budget accounting) with the HTTP routes; its counters
	// surface through GET /v1/stats.
	var streamSrv *stream.Server
	var streamLis net.Listener
	if *streamAddr != "" {
		streamSrv, err = stream.NewServer(reg, stream.Config{
			MaxBatch:       *maxBatch,
			MaxReportCount: *maxReportCount,
			Timeout:        *requestTimeout,
		})
		if err != nil {
			log.Fatalf("stream: %v", err)
		}
		if streamLis, err = net.Listen("tcp", *streamAddr); err != nil {
			log.Fatalf("stream listen: %v", err)
		}
		h.Stream = streamSrv
	}
	// The snapshot route serves raw store files to cluster peers; it is
	// harmless (read-only, checksummed payloads) in single-node mode too.
	h.Store = st

	// Cluster mode: every node embeds the consistent-hash router. Requests
	// for users this node owns serve locally; everything else forwards one
	// hop to the owner over corgi-stream, carrying the epsilon budget
	// handoff so a rebalance or failover never re-opens a window.
	var router *cluster.Router
	if *clusterPeers != "" {
		if *clusterSelf == "" {
			log.Fatalf("cluster: -cluster-self is required with -cluster-peers")
		}
		members, err := cluster.ParsePeers(*clusterPeers)
		if err != nil {
			log.Fatalf("cluster: %v", err)
		}
		router, err = cluster.NewRouter(reg, *clusterSelf, members, cluster.RouterConfig{})
		if err != nil {
			log.Fatalf("cluster: %v", err)
		}
		h.Handler = router
		h.Cluster = router
		if streamSrv != nil {
			streamSrv.SetHandler(router)
		}
		if st != nil {
			st.SetPeerFetch(router.FetchSnapshot)
		}
		log.Printf("cluster mode: %d members, self %s, owning %.1f%% of the keyspace",
			len(members), *clusterSelf, router.Ring().Shares()[*clusterSelf]*100)
	}

	httpSrv := &http.Server{
		Addr:         *addr,
		Handler:      h.Mux(),
		ReadTimeout:  *readTimeout,
		WriteTimeout: *writeTimeout,
		IdleTimeout:  *idleTimeout,
	}
	errc := make(chan error, 2)
	go func() { errc <- httpSrv.ListenAndServe() }()
	if streamSrv != nil {
		go func() { errc <- streamSrv.Serve(streamLis) }()
		log.Printf("corgi-stream transport on %s", streamLis.Addr())
	}
	storeDesc := "no store"
	if st != nil {
		storeDesc = "store " + st.Dir()
	}
	budgetDesc := "no budget accounting"
	if *budgetEps > 0 {
		budgetDesc = fmt.Sprintf("budget %.4g eps per %v", *budgetEps, *budgetWindow)
	}
	log.Printf("CORGI server on %s: regions [%s] (default %s), %d MiB cache per shard, warmup %d, %s, %s, %s bootstrap",
		*addr, strings.Join(reg.Names(), ", "), reg.DefaultRegion(), *cacheMB, *warmup, storeDesc, budgetDesc,
		map[bool]string{true: "eager", false: "lazy"}[*eager])

	select {
	case err := <-errc:
		log.Fatalf("listen: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down (draining in-flight requests)")
	shutCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if streamSrv != nil {
		// Drain the stream first: clients get GOODBYE frames, in-flight
		// report frames finish writing, then connections close.
		if err := streamSrv.Shutdown(shutCtx); err != nil {
			log.Printf("stream shutdown: %v", err)
		}
	}
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	if router != nil {
		router.Close()
	}
	if st != nil {
		// Freshly solved forests persist asynchronously; make them durable
		// before exit so the next start hydrates them.
		reg.FlushStores()
	}
	drained := 1
	if streamSrv != nil {
		drained = 2
	}
	for i := 0; i < drained; i++ {
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, stream.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
	}
	log.Printf("bye")
}
