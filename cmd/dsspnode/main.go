// Command dsspnode runs an untrusted DSSP caching node for one
// application: it serves sealed queries from its cache, forwards misses
// and updates to the home server, and invalidates on completed updates.
// The node holds no keys — it only ever sees what the application's
// exposure assignment reveals.
//
// The node exposes GET /v1/metrics: per-template cache hit/miss and
// invalidation counters plus per-stage latency histograms, as JSON or
// (with ?format=prom) the Prometheus text format.
//
// Usage:
//
//	dsspnode -app toystore -addr :8400 -home http://localhost:8401
//	dsspnode -app bookstore -addr :8400 -home http://home:8401 -capacity 100000
//	dsspnode -app toystore -addr :8400 -id 0 -pprof localhost:6060
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	_ "net/http/pprof"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/httpapi"
	"dssp/internal/template"
)

func main() {
	appName := flag.String("app", "toystore", "application: toystore|auction|bboard|bookstore")
	addr := flag.String("addr", ":8400", "listen address")
	home := flag.String("home", "http://localhost:8401", "home server base URL; comma-separated partition primaries in partition order for a partitioned home tier")
	homeReplicas := flag.String("home-replicas", "", "home read-replica base URLs to spread misses across: comma-separated within a partition, ';'-separated between partitions (aligned with -home)")
	nodeID := flag.String("id", "", "this node's fleet position, labelling its spans in stitched traces")
	capacity := flag.Int("capacity", 0, "cache capacity in entries (0 = unbounded)")
	constraints := flag.Bool("constraints", true, "use integrity constraints in the analysis (§4.5)")
	monitor := flag.Duration("monitor-interval", 0, "batch invalidation per monitoring interval (0 = invalidate inline per update)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil)).With("proc", "dsspnode")
	if *nodeID != "" {
		logger = logger.With("node", *nodeID)
	}
	app, err := resolveApp(*appName)
	if err != nil {
		logger.Error("bad application", "err", err)
		os.Exit(2)
	}
	analysis := core.Analyze(app, core.Options{UseIntegrityConstraints: *constraints})
	node := dssp.NewNode(app, analysis, cache.Options{Capacity: *capacity})
	primaries := splitList(*home, ",")
	if len(primaries) == 0 {
		logger.Error("bad -home", "err", "no primary URL")
		os.Exit(2)
	}
	// Replica lists align per partition: ';' separates partitions, ','
	// separates replicas within one. A lone comma-list is partition 0's.
	var partReplicas [][]string
	nReplicas := 0
	if *homeReplicas != "" {
		for _, part := range strings.Split(*homeReplicas, ";") {
			urls := splitList(part, ",")
			partReplicas = append(partReplicas, urls)
			nReplicas += len(urls)
		}
	}
	opts := httpapi.NodeOptions{
		MonitorInterval: *monitor,
		NodeID:          *nodeID,
	}
	if len(primaries) > 1 {
		opts.HomePartitionURLs = primaries
		opts.PartitionReplicaURLs = partReplicas
	} else if len(partReplicas) > 0 {
		opts.HomeReplicaURLs = partReplicas[0]
	}
	srv := httpapi.NewNodeServerWithOptions(node, primaries[0], nil, opts)

	servePprof(logger, *pprofAddr)
	logger.Info("DSSP node listening",
		"app", app.Name, "addr", *addr, "home", primaries[0], "home_partitions", len(primaries),
		"home_replicas", nReplicas,
		"capacity", *capacity, "monitor_interval", *monitor,
		"metrics", httpapi.PathMetrics, "traces", httpapi.PathTraces)
	if err := httpapi.NewServer(*addr, srv.Handler()).ListenAndServe(); err != nil {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
}

// servePprof exposes net/http/pprof's DefaultServeMux handlers on their
// own listener, so profiling never shares a port with sealed traffic.
func servePprof(logger *slog.Logger, addr string) {
	if addr == "" {
		return
	}
	go func() {
		logger.Info("pprof listening", "addr", addr)
		if err := httpapi.NewServer(addr, nil).ListenAndServe(); err != nil {
			logger.Error("pprof serve failed", "err", err)
		}
	}()
}

// splitList splits on sep, trimming whitespace and dropping empties.
func splitList(s, sep string) []string {
	var out []string
	for _, v := range strings.Split(s, sep) {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func resolveApp(name string) (*template.App, error) {
	switch name {
	case "toystore":
		return apps.Toystore(), nil
	case "auction":
		return apps.NewAuction().App(), nil
	case "bboard":
		return apps.NewBBoard().App(), nil
	case "bookstore":
		return apps.NewBookstore().App(), nil
	default:
		return nil, fmt.Errorf("dsspnode: unknown application %q", name)
	}
}
