package store

import (
	"tagsim/internal/obs"
	otrace "tagsim/internal/obs/trace"
)

// Process-wide storage-tier series in the obs.Default registry, so
// headless runs see tier activity too: cmd/tagsim's -metrics-every
// compact snapshots render only Default, while tagserve's /metrics
// panes additionally carry the per-vendor splits its per-server
// registry bridges from TierStats. These are aggregates across every
// tiered store in the process; they only move when a tier is actually
// in play (in-memory stores never construct a walWriter or flush), so
// an in-memory campaign logs them as honest zeros.
var (
	obsWALRecords   = obs.GetCounter("store_wal_records")
	obsWALBytes     = obs.GetCounter("store_wal_bytes")
	obsWALFsyncs    = obs.GetCounter("store_wal_fsyncs")
	obsFlushes      = obs.GetCounter("store_flushes")
	obsCompactions  = obs.GetCounter("store_compactions")
	obsQuarantines  = obs.GetCounter("store_quarantines")
	obsWALFsyncHist = obs.GetHistogram("store_wal_fsync_seconds")
	obsFlushHist    = obs.GetHistogram("store_flush_seconds")
	obsCompactHist  = obs.GetHistogram("store_compaction_seconds")
)

// Capture thresholds for the tier's self-rooted background traces.
// Each is driven by the live p99 of the matching histogram with a zero
// floor — these ops are rare and ms-scale, so "slower than your own
// p99" is exactly the set worth keeping. Quarantines capture
// unconditionally: every one is an incident.
var (
	walFsyncThreshold   = otrace.NewThreshold(obsWALFsyncHist, 0)
	flushThreshold      = otrace.NewThreshold(obsFlushHist, 0)
	compactThreshold    = otrace.NewThreshold(obsCompactHist, 0)
	quarantineThreshold = otrace.NewThreshold(nil, 0)
)
