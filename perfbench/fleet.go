package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/homeserver"
	"dssp/internal/httpapi"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

// numNodes is the fleet width: a router over this many dsspnode servers.
const numNodes = 2

// httpTimeout bounds every round trip on every hop. Nothing in a healthy
// run comes near it; a hung hop fails its op instead of the whole run.
const httpTimeout = 10 * time.Second

// fleet is one in-process deployment: home server, numNodes nodes and a
// router, each behind its own httptest listener on loopback, plus the
// trusted client's codec and the home database the freshness audit reads.
type fleet struct {
	bench     workload.Benchmark
	codec     *wire.Codec
	db        *storage.Database
	home      *homeserver.Server
	nodes     []*httpapi.NodeServer
	router    *httpapi.RouterServer
	routerTr  *http.Transport // client -> router connections
	nodeTr    *http.Transport // router -> node connections
	servers   []*httptest.Server
	hosts     map[string]string // listener host:port -> process name
	routerURL string
}

// exposures picks the workload's exposure assignment: every template at
// its maximum (view for queries), every template blind, or the paper's
// methodology outcome under the app's compulsory caps.
func exposures(mode string, b workload.Benchmark) (map[string]template.Exposure, *core.Analysis, error) {
	app := b.App()
	switch mode {
	case "view":
		return core.MaxExposures(app), core.Analyze(app, core.DefaultOptions()), nil
	case "blind":
		exps := map[string]template.Exposure{}
		for _, t := range app.Queries {
			exps[t.ID] = template.ExpBlind
		}
		for _, t := range app.Updates {
			exps[t.ID] = template.ExpBlind
		}
		return exps, core.Analyze(app, core.DefaultOptions()), nil
	case "method":
		res := core.Methodology{App: app, Compulsory: b.Compulsory(), Opts: core.DefaultOptions()}.Run()
		return res.Final, res.Analysis, nil
	}
	return nil, nil, fmt.Errorf("unknown exposure mode %q", mode)
}

func newBenchmark(app string) (workload.Benchmark, error) {
	switch app {
	case "bookstore":
		return apps.NewBookstore(), nil
	case "bboard":
		return apps.NewBBoard(), nil
	}
	return nil, fmt.Errorf("unknown app %q", app)
}

// dataSeed populates every run's database. The dataset is fixed, like a
// benchmark's scale factor; the run's seed varies the traffic over it.
// Seeding the data too would make the cost of the home server's heavy
// queries differ from seed to seed, and with it every tail latency.
const dataSeed = 1

// startFleet populates a fresh database, runs the static analysis and
// starts the fleet: the set-up that setup_s times. tr, when non-nil,
// installs the traced run's handler middleware and round-tripper around
// every server and client; the untraced run passes nil.
func startFleet(spec workloadSpec, tr *tracer) (*fleet, error) {
	b, err := newBenchmark(spec.app)
	if err != nil {
		return nil, err
	}
	app := b.App()
	db := storage.NewDatabase(app.Schema)
	if err := b.Populate(db, rand.New(rand.NewSource(dataSeed))); err != nil {
		return nil, fmt.Errorf("populate %s: %w", spec.app, err)
	}
	exps, analysis, err := exposures(spec.exposure, b)
	if err != nil {
		return nil, err
	}
	key := make([]byte, encrypt.KeySize)
	rand.New(rand.NewSource(dataSeed)).Read(key)
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(key), exps)

	f := &fleet{bench: b, codec: codec, db: db, hosts: map[string]string{}}
	serve := func(name string, h http.Handler) string {
		srv := httptest.NewServer(tr.handler(name, h))
		f.servers = append(f.servers, srv)
		f.hosts[srv.Listener.Addr().String()] = name
		return srv.URL
	}

	f.home = homeserver.New(db, app, codec)
	homeURL := serve(procHome, httpapi.HomeHandler(f.home))

	nodeURLs := make([]string, numNodes)
	for i := range nodeURLs {
		name := fmt.Sprintf("%s%d", procNode, i)
		node := dssp.NewNode(app, analysis, cache.Options{})
		ns := httpapi.NewNodeServerWithOptions(node, homeURL, tr.client(name, f.hosts, newTransport(numNodes*2)),
			httpapi.NodeOptions{NodeID: fmt.Sprint(i)})
		f.nodes = append(f.nodes, ns)
		nodeURLs[i] = serve(name, ns.Handler())
	}

	f.nodeTr = newTransport(numNodes * 2)
	f.router = httpapi.NewRouterServer(analysis, nodeURLs, httpapi.RouterOptions{
		Client: tr.client(procRouter, f.hosts, f.nodeTr),
	})
	f.routerURL = serve(procRouter, f.router.Handler())
	f.routerTr = newTransport(workers())
	f.routerTr.MaxConnsPerHost = workers()
	return f, nil
}

// newTransport is a loopback transport keeping up to idle connections
// per host, so steady traffic reuses connections instead of churning
// them.
func newTransport(idle int) *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: idle, DisableCompression: true}
}

// newClient is a trusted application client talking to the router over
// the fleet's bounded client connections.
func (f *fleet) newClient(tr *tracer) *httpapi.Client {
	return httpapi.NewClient(f.codec, f.routerURL, tr.client(procClient, f.hosts, f.routerTr))
}

// close stops every listener and idle connection of the fleet.
func (f *fleet) close() {
	for i := len(f.servers) - 1; i >= 0; i-- {
		f.servers[i].Close()
	}
	f.routerTr.CloseIdleConnections()
	f.nodeTr.CloseIdleConnections()
	for _, ns := range f.nodes {
		ns.Client.CloseIdleConnections()
	}
}
