// Package dssp assembles the Database Scalability Service Provider node of
// Figure 1/2: the untrusted cache of (possibly encrypted) query results,
// the mixed invalidation strategy dispatch, and the query/update pathways
// between clients and the application's home server.
//
// The node never holds encryption keys. Everything it learns comes from
// the exposure levels chosen by the application's administrator; the rest
// passes through as opaque ciphertext.
package dssp

import (
	"context"
	"sync"
	"time"

	"dssp/internal/cache"
	"dssp/internal/core"
	hometier "dssp/internal/home"
	"dssp/internal/homeserver"
	"dssp/internal/invalidate"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// Node is one DSSP node serving a single application. Its cache is what
// the pipeline drives (pipeline.New(node.Cache, …)).
type Node struct {
	App   *template.App
	Cache *cache.Cache
}

// NewNode builds a DSSP node using the given static analysis (which
// determines template-inspection decisions).
func NewNode(app *template.App, analysis *core.Analysis, opts cache.Options) *Node {
	inv := invalidate.New(app, analysis)
	return &Node{App: app, Cache: cache.New(app, inv, opts)}
}

// Client is the trusted, application-side driver of the in-process
// deployment: it seals statements, routes them through the shared
// pipeline (direct transport to the home server), and opens results. The
// HTTP deployment and the discrete-event simulator route through the same
// pipeline with their own transports.
type Client struct {
	Codec *wire.Codec
	Node  *Node
	Home  *homeserver.Server

	// Tracer, when set, records per-stage spans (seal, cache_lookup,
	// network, invalidate, open) and the end-to-end request histogram for
	// every statement routed through the client. nil disables tracing.
	Tracer *obs.Tracer

	// MonitorInterval, when positive, batches this node's invalidation
	// per monitoring interval (§2.2): updates confirm immediately at the
	// home server but their cache invalidation — and the Update call's
	// return — waits for the next interval flush. Set before the first
	// statement; the pipeline is built once.
	MonitorInterval time.Duration

	// Leakage, when set, audits the sealed traffic at the node trust
	// boundary (the adversary's-eye measurement). Set before the first
	// statement.
	Leakage pipeline.LeakageObserver

	// HomeReplicas, when non-empty, scales the trusted tier out: the
	// client's transport becomes a pipeline.ReplicaSet over these read
	// replicas (misses spread across them under the freshness floor,
	// updates still execute on Home), and Home's confirmation sink feeds
	// each replica the confirmed-update stream. Set before the first
	// statement; Home must not already have an OnConfirm sink.
	HomeReplicas []*hometier.Replica

	// HomeParts, when set, makes the trusted tier a partitioned master
	// (one primary per table-group partition, each with its own write
	// lock and sequence stream): statements route by their group, and the
	// freshness floor becomes a per-partition vector. Home should then be
	// HomeParts.Part(0), kept for code that inspects the primary
	// directly; HomeReplicas is ignored in this mode (wire per-partition
	// replicas onto HomeParts' servers instead). Set before the first
	// statement.
	HomeParts *hometier.Partitioned

	pipeOnce sync.Once
	pipe     *pipeline.Pipeline
}

// Pipeline returns the client's query/update pathway, built on first use
// from the client's node, home server, replicas, and tracer.
func (c *Client) Pipeline() *pipeline.Pipeline {
	c.pipeOnce.Do(func() {
		opts := pipeline.Options{MonitorInterval: c.MonitorInterval, Leakage: c.Leakage}
		if c.HomeParts != nil {
			opts.Fresh = pipeline.NewFreshnessParts(c.HomeParts.Parts())
			c.pipe = pipeline.New(c.Node.Cache, c.HomeParts.Transport(), c.Tracer, opts)
			return
		}
		var transport pipeline.Transport = pipeline.NewDirectTransport(c.Home)
		if len(c.HomeReplicas) > 0 {
			hometier.Feed(c.Home, c.HomeReplicas...)
			opts.Fresh = pipeline.NewFreshness()
			var reg *obs.Registry
			if c.Tracer != nil {
				reg = c.Tracer.Registry()
			}
			transport = pipeline.NewReplicaSet(transport, hometier.Endpoints(c.HomeReplicas), opts.Fresh, reg)
		}
		c.pipe = pipeline.New(c.Node.Cache, transport, c.Tracer, opts)
	})
	return c.pipe
}

// QueryOutcome describes how a query was served.
type QueryOutcome struct {
	Hit     bool
	Rows    int
	Scanned int // base rows scanned at the home server (0 on a hit)
}

// Query executes one query template instance end to end.
func (c *Client) Query(t *template.Template, params ...interface{}) (*QueryResult, error) {
	vals, err := Params(params...)
	if err != nil {
		return nil, err
	}
	start := c.Tracer.Now()
	sq, err := c.Codec.SealQuery(t, vals)
	if err != nil {
		return nil, err
	}
	sq.ParentSpan = c.Tracer.ObserveSpan(obs.SpanRecord{
		Trace: sq.TraceID, Stage: obs.StageSeal, Template: t.ID,
		Start: start, Duration: c.Tracer.Now() - start,
	})
	reply, err := c.Pipeline().QuerySync(context.Background(), sq)
	if err != nil {
		return nil, err
	}
	op := c.Tracer.Start(sq.TraceID, obs.StageOpen, t.ID)
	res, err := c.Codec.OpenResult(reply.Result)
	if err != nil {
		return nil, err
	}
	op.End()
	return &QueryResult{Result: res, Outcome: QueryOutcome{
		Hit:     reply.Hit,
		Rows:    res.Len(),
		Scanned: reply.Scanned,
	}}, nil
}

// Update executes one update template instance end to end: the update is
// routed (encrypted) via the DSSP to the home server, and the DSSP
// invalidates after completion (Figure 2).
func (c *Client) Update(t *template.Template, params ...interface{}) (affected, invalidated int, err error) {
	vals, err := Params(params...)
	if err != nil {
		return 0, 0, err
	}
	start := c.Tracer.Now()
	su, err := c.Codec.SealUpdate(t, vals)
	if err != nil {
		return 0, 0, err
	}
	su.ParentSpan = c.Tracer.ObserveSpan(obs.SpanRecord{
		Trace: su.TraceID, Stage: obs.StageSeal, Template: t.ID,
		Start: start, Duration: c.Tracer.Now() - start,
	})
	reply, err := c.Pipeline().UpdateSync(context.Background(), su)
	if err != nil {
		return 0, 0, err
	}
	return reply.Affected, reply.Invalidated, nil
}
