// Command pgakvlb is the replication-aware read load-balancer in front
// of a pgakvd primary and its replicas.
//
// Usage:
//
//	pgakvlb -primary http://host:8080 \
//	        -replicas http://host:8081,http://host:8082 \
//	        [-addr :8090] [-max-lag 64] [-probe-interval 500ms]
//
// Reads (/v1/answer, /v1/batch, /v1/methods, /v1/prompts, /v1/traces*)
// round-robin across replicas that are live (/healthz) and within
// -max-lag records of the primary; writes (/v1/ingest, /v1/snapshot/*,
// /v1/prompts/reload) and everything else forward to the primary.
// Every proxied response carries X-Served-By with the backing node's
// URL.
//
// Read-your-writes: a client that just ingested at epoch E sends its
// next read with "X-Min-Epoch: E"; the router only routes it to a
// replica whose last-probed epoch for every source is >= E, falling
// back to the primary (always current) when none qualifies. Probed
// epochs only ever increase, so the cached value is a lower bound —
// the router can be conservative, never stale.
//
// GET /v1/lb/status reports the node table: health, per-source epochs,
// lag, routed-read counts and primary fallbacks. The flags are listed,
// with their defaults, in docs/operations.md.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/repl"
)

// config is everything pgakvlb is started with, one field per flag.
type config struct {
	Addr          string
	Primary       string
	Replicas      string
	MaxLag        uint64
	ProbeInterval time.Duration
}

// flags registers every pgakvlb flag, each bound to its field of c. The
// "Router flags" table in docs/operations.md lists exactly this set with
// these defaults; a test holds the two together.
func flags(c *config) *flag.FlagSet {
	fs := flag.NewFlagSet("pgakvlb", flag.ExitOnError)
	fs.StringVar(&c.Addr, "addr", ":8090", "listen address")
	fs.StringVar(&c.Primary, "primary", "", "primary pgakvd base URL (required)")
	fs.StringVar(&c.Replicas, "replicas", "", "comma-separated replica base URLs")
	fs.Uint64Var(&c.MaxLag, "max-lag", 64, "max records (= epochs) a replica may trail the primary and still take reads")
	fs.DurationVar(&c.ProbeInterval, "probe-interval", 500*time.Millisecond, "health/epoch probe cadence")
	return fs
}

func main() {
	var c config
	flags(&c).Parse(os.Args[1:]) // ExitOnError: a bad flag has already exited

	if c.Primary == "" {
		fmt.Fprintln(os.Stderr, "pgakvlb: -primary is required")
		os.Exit(1)
	}
	var replicaURLs []string
	for _, u := range strings.Split(c.Replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			replicaURLs = append(replicaURLs, u)
		}
	}

	router, err := repl.NewRouter(repl.RouterConfig{
		Primary:       c.Primary,
		Replicas:      replicaURLs,
		MaxLag:        c.MaxLag,
		ProbeInterval: c.ProbeInterval,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgakvlb:", err)
		os.Exit(1)
	}
	defer router.Close()

	fmt.Printf("routing reads across %d replica(s), writes to %s, max lag %d\n", len(replicaURLs), c.Primary, c.MaxLag)
	srv := &http.Server{
		Addr:              c.Addr,
		Handler:           router,
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("listening on %s\n", c.Addr)
	if err := srv.ListenAndServe(); err != nil {
		fmt.Fprintln(os.Stderr, "pgakvlb:", err)
		os.Exit(1)
	}
}
