package experiments

import (
	"context"
	"time"

	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/homeserver"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// HarnessOptions configures a direct-pipeline deployment.
type HarnessOptions struct {
	// Exposures assigns exposure levels per template ID (nil = full
	// exposure).
	Exposures map[string]template.Exposure

	// CacheOpts configures the node cache. The harness's shared registry
	// is always wired in.
	CacheOpts cache.Options

	// Pipeline configures the shared pathway (e.g. DisableCoalescing for
	// the coalescing experiment's baseline mode).
	Pipeline pipeline.Options

	// HomeDelay adds a fixed one-way delay in front of the home server,
	// modelling the WAN hop of Figure 1 so that concurrent misses overlap
	// in real time.
	HomeDelay time.Duration

	// AdmissionLimit bounds concurrent home-server executions (0 = off).
	AdmissionLimit int
}

// Harness is the experiments package's deployment of the Figure 1 stack:
// the same node cache, home server, and shared pipeline as the in-process
// client, the HTTP node, and the simulator — driven directly and
// concurrently in real time, which is what the coalescing and admission
// experiments measure (virtual time serializes events; HTTP adds noise).
type Harness struct {
	App   *template.App
	Codec *wire.Codec
	DB    *storage.Database
	Node  *dssp.Node
	Home  *homeserver.Server
	Pipe  *pipeline.Pipeline
	Reg   *obs.Registry
}

// NewHarness assembles a harness for an application with an empty master
// database (insert ground-truth rows through DB before querying).
func NewHarness(app *template.App, opts HarnessOptions) *Harness {
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), opts.Exposures)
	db := storage.NewDatabase(app.Schema)
	reg := obs.NewRegistry()
	cacheOpts := opts.CacheOpts
	cacheOpts.Obs = reg
	node := dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cacheOpts)
	home := homeserver.New(db, app, codec)
	home.SetObs(reg, obs.WallClock())
	home.SetAdmissionLimit(opts.AdmissionLimit)
	transport := pipeline.WithDelay(pipeline.NewDirectTransport(home), opts.HomeDelay)
	tracer := obs.NewTracer(reg, obs.WallClock())
	return &Harness{
		App:   app,
		Codec: codec,
		DB:    db,
		Node:  node,
		Home:  home,
		Pipe:  pipeline.New(node.Cache, transport, tracer, opts.Pipeline),
		Reg:   reg,
	}
}

// Query seals one query template instance and routes it through the
// pipeline, returning the sealed-side reply (open Reply.Result through
// Codec when the plaintext matters).
func (h *Harness) Query(ctx context.Context, templateID string, params ...interface{}) (pipeline.QueryReply, error) {
	t := h.App.Query(templateID)
	vals, err := dssp.Params(params...)
	if err != nil {
		return pipeline.QueryReply{}, err
	}
	sq, err := h.Codec.SealQuery(t, vals)
	if err != nil {
		return pipeline.QueryReply{}, err
	}
	return h.Pipe.QuerySync(ctx, sq)
}

// Update seals one update template instance and routes it through the
// pipeline.
func (h *Harness) Update(ctx context.Context, templateID string, params ...interface{}) (pipeline.UpdateReply, error) {
	t := h.App.Update(templateID)
	vals, err := dssp.Params(params...)
	if err != nil {
		return pipeline.UpdateReply{}, err
	}
	su, err := h.Codec.SealUpdate(t, vals)
	if err != nil {
		return pipeline.UpdateReply{}, err
	}
	return h.Pipe.UpdateSync(ctx, su)
}

// CoalescedMisses reports the pipeline's coalesced-miss counter.
func (h *Harness) CoalescedMisses() int {
	return int(h.Reg.Counter(obs.MCoalescedMisses).Value())
}
