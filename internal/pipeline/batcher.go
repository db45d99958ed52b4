package pipeline

import (
	"sync"
	"time"

	"dssp/internal/obs"
	"dssp/internal/wire"
)

// batcher is the pipeline's monitoring-interval stage: confirmed updates
// accumulate here, in confirmation order, and are applied to the cache as
// one batch when the interval expires. The first update of an idle period
// arms the flush timer (on the deployment's clock — wall time, or the
// simulator's virtual time), so an empty node schedules no work and a
// busy one flushes exactly once per interval.
type batcher struct {
	p        *Pipeline
	interval time.Duration
	after    func(time.Duration, func())

	mu      sync.Mutex
	pending []pendingUpdate
	armed   bool
}

// pendingUpdate is one confirmed update waiting for the interval flush,
// with the completion callback that resolves its caller.
type pendingUpdate struct {
	su   wire.SealedUpdate
	done func(invalidated int)
}

func newBatcher(p *Pipeline, opts Options) *batcher {
	after := opts.After
	if after == nil {
		after = func(d time.Duration, fn func()) { time.AfterFunc(d, fn) }
	}
	return &batcher{p: p, interval: opts.MonitorInterval, after: after}
}

// add enqueues a confirmed update. done fires at the flush with the
// update's exact invalidation count.
func (b *batcher) add(su wire.SealedUpdate, done func(int)) {
	b.mu.Lock()
	b.pending = append(b.pending, pendingUpdate{su: su, done: done})
	arm := !b.armed
	b.armed = true
	b.mu.Unlock()
	if arm {
		b.after(b.interval, b.flush)
	}
}

// flush applies everything pending as one batch and resolves each
// update's callback with its per-update count, in confirmation order.
func (b *batcher) flush() {
	b.mu.Lock()
	batch := b.pending
	b.pending = nil
	b.armed = false
	b.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	us := make([]wire.SealedUpdate, len(batch))
	for i, pu := range batch {
		us[i] = pu.su
	}
	if b.p.batchSizes != nil {
		// The shared histogram buckets durations at 1µs·2^i; encoding a
		// batch of n updates as n microseconds makes bucket i read
		// "batches of up to 2^i updates" (see obs.MCacheBatchSize).
		b.p.batchSizes.Observe(time.Duration(len(batch)) * time.Microsecond)
	}
	start := b.p.tracer.Now()
	counts := b.p.cache.OnUpdates(us)
	// Each update's invalidate span gets its amortized share of the one
	// batch walk, keeping the per-template stage histograms meaningful.
	share := (b.p.tracer.Now() - start) / time.Duration(len(batch))
	for i, pu := range batch {
		b.p.tracer.ObserveSpan(obs.SpanRecord{
			Trace: us[i].TraceID, Parent: us[i].ParentSpan,
			Stage: obs.StageInvalidate, Template: obs.Tmpl(us[i].TemplateID),
			Start: start, Duration: share,
		})
		if b.p.opts.Leakage != nil {
			b.p.opts.Leakage.ObserveInvalidation(us[i], counts[i])
		}
		pu.done(counts[i])
	}
}

// MonitorUpdate feeds one confirmed update into the node's invalidation
// monitor: with a monitoring interval configured it joins the current
// batch and done fires at the flush; without one, invalidation runs
// inline and done fires before MonitorUpdate returns. This is also the
// entry point for updates confirmed elsewhere — the simulator and the
// shard router fan other nodes' completed updates into each node's
// monitor through it. seq is the update's confirmed sequence number at
// the home partition that executed it (0 when unknown); it raises the
// node's freshness floor for that partition — identified by the sealed
// update's table group — so no later miss of the same partition is
// served by a replica that hasn't applied it.
func (p *Pipeline) MonitorUpdate(su wire.SealedUpdate, seq uint64, done func(invalidated int)) {
	if p.opts.Fresh != nil {
		p.opts.Fresh.Raise(su.Group, seq)
	}
	if p.batcher == nil {
		inv := p.tracer.StartSpan(su.TraceID, su.ParentSpan, obs.StageInvalidate, obs.Tmpl(su.TemplateID))
		n := p.cache.OnUpdates([]wire.SealedUpdate{su})[0]
		inv.End()
		if p.opts.Leakage != nil {
			p.opts.Leakage.ObserveInvalidation(su, n)
		}
		done(n)
		return
	}
	p.batcher.add(su, done)
}

// FlushUpdates forces the batcher to apply everything pending now,
// without waiting for the interval timer. No-op when no interval is
// configured.
func (p *Pipeline) FlushUpdates() {
	if p.batcher != nil {
		p.batcher.flush()
	}
}
