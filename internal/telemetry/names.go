package telemetry

// Metric names. Every instrument in the tree resolves its name from this
// block — the khazlint telemetryname analyzer rejects inline literals — so
// this file is the complete, greppable catalog of what a node exports.
//
// Conventions: names are dotted "<layer>.<metric>"; latency histograms
// carry a _ns suffix and observe nanoseconds; size histograms (batch page
// counts) are unitless.
const (
	// MetricLookups counts region-descriptor lookups (§3.2 location path:
	// region directory, ring, address map tree walk).
	MetricLookups = "core.lookups"
	// MetricLookupDirHits counts lookups satisfied by the local directory.
	MetricLookupDirHits = "core.lookup_dir_hits"
	// MetricLocksGranted counts granted lock requests.
	MetricLocksGranted = "core.locks_granted"
	// MetricReleaseRetries counts background release retries (§3.5).
	MetricReleaseRetries = "core.release_retries"
	// MetricPromotions counts emergency home promotions after an
	// unreachable home.
	MetricPromotions = "core.promotions"
	// MetricHomedRegions gauges the regions this node is a home of,
	// primary or secondary.
	MetricHomedRegions = "core.homed_regions"
	// MetricReadViews counts zero-copy cached read views served. This is
	// the only instrument on the cached-read hot path.
	MetricReadViews = "core.read_views"
	// MetricLockLatency observes end-to-end Lock latency in nanoseconds.
	MetricLockLatency = "core.lock_latency_ns"
	// MetricReleaseLatency observes end-to-end Unlock latency in
	// nanoseconds.
	MetricReleaseLatency = "core.release_latency_ns"
	// MetricLockBatchPages observes pages per lock acquisition (batch
	// size distribution of the multi-page pipeline).
	MetricLockBatchPages = "core.lock_batch_pages"

	// MetricPingRTT observes peer round-trip times in nanoseconds — the
	// tracer's baseline network signal.
	MetricPingRTT = "net.ping_rtt_ns"

	// MetricTransportConnsOpen gauges connections currently open on this
	// transport, dialed and accepted alike. It stays near connsPerPeer x
	// peers no matter how many requests are in flight.
	MetricTransportConnsOpen = "transport.conns_open"
	// MetricTransportInflight gauges requests currently in flight
	// through this transport: outbound requests awaiting a response plus
	// inbound requests inside the handler.
	MetricTransportInflight = "transport.inflight_requests"
	// MetricTransportBytesIn counts frame bytes received, length
	// prefixes included.
	MetricTransportBytesIn = "transport.bytes_in"
	// MetricTransportBytesOut counts frame bytes sent, length prefixes
	// included.
	MetricTransportBytesOut = "transport.bytes_out"

	// MetricMemPages gauges resident RAM-tier pages.
	MetricMemPages = "store.mem_pages"
	// MetricDiskPages gauges resident disk-tier pages.
	MetricDiskPages = "store.disk_pages"
	// MetricMemMisses counts page reads that missed the RAM tier and fell
	// through to disk.
	MetricMemMisses = "store.mem_misses"

	// MetricEventualPushFailures counts eventual-protocol updates a
	// gossip round failed to deliver to a replica site.
	MetricEventualPushFailures = "consistency.eventual_push_failures"
	// MetricEventualApplyFailures counts eventual updates that failed to
	// install here, pushed or parked.
	MetricEventualApplyFailures = "consistency.eventual_apply_failures"
	// MetricCrewInvalidateFailures counts CREW invalidations that failed
	// and pruned the sharer from the copyset.
	MetricCrewInvalidateFailures = "consistency.crew_invalidate_failures"
	// MetricGrantPagesCurrent counts grant pages that shipped no bytes.
	MetricGrantPagesCurrent = "consistency.grant_pages_current"
	// MetricReleaseOneWayFailed counts pages of one-way (clean) CREW
	// releases that failed at their receiver. No reply reports them, so
	// the releaser does not retry them.
	MetricReleaseOneWayFailed = "consistency.release_oneway_failed"
	// MetricReleaseUnlogged counts replicated CREW releases whose log
	// append failed at the home (it is not the log's leader, or no
	// majority took the append): the release still returned success.
	MetricReleaseUnlogged = "consistency.release_unlogged"
	// MetricPrefetchSpecPages, MetricPrefetchHits and MetricPrefetchWaste
	// named the retired read-ahead grants' instruments. Nothing registers
	// them any more; they stay only so the benchmark module, which still
	// reads them (as zero), keeps compiling.
	MetricPrefetchSpecPages = "consistency.prefetch_spec_pages"
	MetricPrefetchHits      = "consistency.prefetch_hits"
	MetricPrefetchWaste     = "consistency.prefetch_waste"
	// MetricUpdateBatchPages observes pages per batched replication
	// write-through RPC (unitless size histogram).
	MetricUpdateBatchPages = "consistency.update_batch_pages"

	// MetricSnapshotReads counts zero-copy page views served to snapshot
	// contexts (the lock-free read path).
	MetricSnapshotReads = "core.snapshot_reads"
	// MetricSnapshotChainLen observes the per-page version-chain length
	// at publish time (home side; unitless size histogram).
	MetricSnapshotChainLen = "consistency.snapshot_version_chain_len"
	// MetricSnapshotReclaimed counts retired old-version frames given
	// back by version chains (on publish and under memory pressure).
	MetricSnapshotReclaimed = "consistency.snapshot_reclaimed_frames"

	// MetricHomePromotions counts ad-hoc §3.5 home promotions this node
	// performed or requested after finding a primary unreachable (the
	// legacy walk-the-home-list path; election-won failovers count under
	// replog.failovers instead).
	MetricHomePromotions = "core.home_promotions"
	// MetricHomeMapUpdateFailed counts promotions and home-list growths
	// whose best-effort address-map update failed (tree walks see old homes).
	MetricHomeMapUpdateFailed = "core.home_map_update_failed"
	// MetricReplicaRepairs counts pages re-pushed by the background
	// minimum-replica maintainer to restore a region's replica count.
	MetricReplicaRepairs = "core.replica_repairs"

	// MetricReplLogLen gauges entries currently retained across all
	// region logs this node leads or follows (post-compaction tail).
	MetricReplLogLen = "replog.log_len"
	// MetricReplCommitLatency observes leader-side commit latency per
	// append — from entry creation to quorum ack — in nanoseconds.
	MetricReplCommitLatency = "replog.commit_latency_ns"
	// MetricReplElections counts leader elections this node started.
	MetricReplElections = "replog.elections"
	// MetricReplFailovers counts elections this node won, each one a
	// completed home failover resumed from the replicated log.
	MetricReplFailovers = "replog.failovers"
	// MetricReplDegradedCommits counts appends committed without a
	// majority's acks (availability-over-durability mode).
	MetricReplDegradedCommits = "replog.degraded_commits"
	// MetricReplCatchups counts catch-up appends sent: to a follower
	// after a failed send or a log gap, carrying every entry it lacks
	// (a snapshot when the log compacted past them) and the current bytes
	// of the pages they name. A healthy follower needs none.
	MetricReplCatchups = "replog.catchups"

	// MetricLookupStageDir observes the latency of lookups resolved by
	// the region-directory cache (stage 1), in nanoseconds.
	MetricLookupStageDir = "core.lookup_stage_dir_ns"
	// MetricLookupStageRing observes the latency of cold lookups resolved
	// by the consistent-hashing ring in one RPC hop (stage 2), in
	// nanoseconds.
	MetricLookupStageRing = "core.lookup_stage_ring_ns"
	// MetricLookupStageWalk observes the latency of cold lookups that
	// the ring could not answer and the §3.1 address-map tree walk
	// repaired, in nanoseconds.
	MetricLookupStageWalk = "core.lookup_stage_walk_ns"

	// MetricRingLookups counts cold lookups resolved through the
	// consistent-hashing descriptor partition (one-hop RingLookup hits,
	// local ring-table hits included).
	MetricRingLookups = "ring.lookups"
	// MetricRingRebalanceMoves counts homed descriptors whose ring owner
	// set changed on a membership change and were re-announced (only
	// moved partitions re-announce; everything else stays put).
	MetricRingRebalanceMoves = "ring.rebalance_moves"
	// MetricRingFallbackWalks counts cold lookups the ring failed to
	// resolve — owners unreachable or their tables missing the region —
	// that the address-map tree walk repaired: the one count of tree
	// walks. Steady state is zero; a nonzero rate means the ring
	// disagrees with reality (mid-churn, lost announce) and is being
	// repaired.
	MetricRingFallbackWalks = "ring.fallback_walks"
)
