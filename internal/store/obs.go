package store

// This file is the store's entire observability surface: every obs
// reference, wall-clock read, and metric lives here, behind note*
// helpers the rest of the package calls. Observability is strictly
// write-only for the store — values flow into counters and spans,
// nothing is ever read back into a key, a blob, or a rendered byte —
// which is why the imports below carry determinism waivers instead of
// the package leaving the byte-identity scope.

import (
	"time"

	//simlint:allow determinism -- write-only observability: metric and span values flow out of the store and never back into keys, blobs, or rendered bytes
	"simbench/internal/obs"
)

// Store-side metrics on the process-wide default registry, scraped (or
// dumped) by the CLIs that own a Store.
var (
	mHits = obs.Default.CounterVec("simbench_store_hits_total",
		"lookups served from the store, by the tier that originally supplied the measurement", "tier")
	mMisses = obs.Default.Counter("simbench_store_misses_total",
		"lookups that missed every tier (the cell had to run)")
	mPromotions = obs.Default.CounterVec("simbench_store_promotions_total",
		"blobs copied into a faster tier after a slower one answered", "tier")
	mCoalesced = obs.Default.Counter("simbench_store_coalesced_lookups_total",
		"lookups that waited on another worker's in-flight probe of the same key instead of reading themselves")
	mQueueDepth = obs.Default.Gauge("simbench_store_writeback_queue_depth",
		"remote uploads currently queued behind the write-back goroutine")
	mDropped = obs.Default.Counter("simbench_store_writeback_dropped_total",
		"remote uploads shed because the write-back queue was full; local tiers keep the result, fleet sharing is deferred")
	mRemoteLatency = obs.Default.HistogramVec("simbench_store_remote_seconds",
		"remote tier round-trip latency by operation", obs.DefBuckets, "op")
	mDegrades = obs.Default.Counter("simbench_store_degraded_total",
		"times the remote tier was marked down and the store fell back to local tiers")
	mHistoryDecodes = obs.Default.Counter("simbench_store_history_decodes_total",
		"history streams parsed: a local history file, a remote /runs response, or a server index rebuild")
)

// nowMono and sinceSec are the store's only wall-clock reads; both feed
// latency metrics and trace spans exclusively.

//simlint:allow determinism -- latency timing feeds metrics and spans only, never output
func nowMono() time.Time { return time.Now() }

//simlint:allow determinism -- latency timing feeds metrics and spans only, never output
func sinceSec(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// tracerRef is embedded by Store and RemoteTier so the rest of the
// package can carry a tracer without touching obs types. The field is
// written by SetTracer before the store is handed to a scheduler and
// read afterwards from worker and uploader goroutines; the goroutine
// start (workers) and queue send (uploader) order those accesses.
type tracerRef struct{ tr *obs.Tracer }

// SetTracer attaches a tracer for store-side spans: remote GET round
// trips, write-back uploads, degrade and drop markers. Call it before
// handing the store to a Scheduler, alongside obs.WithTracer on the
// run context. A nil tracer (the default) records nothing.
func (s *Store) SetTracer(tr *obs.Tracer) {
	s.tr = tr
	if s.remote != nil {
		s.remote.tr = tr
		tr.NameThread(obs.TidStoreRemote, "store: remote reads")
		tr.NameThread(obs.TidWriteback, "store: write-back")
	}
}

// noteLookup attributes one resolved lookup.
func noteLookup(origin Provenance, hit bool) {
	if hit {
		mHits.With(string(origin)).Inc()
	} else {
		mMisses.Inc()
	}
}

func notePromotion(dest Provenance) { mPromotions.With(string(dest)).Inc() }

func noteCoalesced() { mCoalesced.Inc() }

func noteHistoryDecode() { mHistoryDecodes.Inc() }

func noteQueueDepth(delta float64) { mQueueDepth.Add(delta) }

// traceRemote opens a latency observation plus (when traced) a span
// for one remote round trip; the returned func closes both.
func (rt *RemoteTier) traceRemote(op string, k Key) func() {
	tid := obs.TidStoreRemote
	if op == "put" {
		tid = obs.TidWriteback
	}
	sp := rt.tr.Begin(tid, "remote."+op, "store").Arg("key", k.String())
	t0 := nowMono()
	return func() {
		mRemoteLatency.With(op).Observe(sinceSec(t0))
		sp.End()
	}
}

// noteDegraded marks the first transition to degraded operation.
func (rt *RemoteTier) noteDegraded() {
	mDegrades.Inc()
	rt.tr.Instant(obs.TidStoreRemote, "degrade", "store")
}

// noteDrop marks one shed upload.
func (rt *RemoteTier) noteDrop() {
	mDropped.Inc()
	rt.tr.Instant(obs.TidWriteback, "writeback.drop", "store")
}
