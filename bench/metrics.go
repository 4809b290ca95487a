package main

// runStats carries what the harness measured around the timed window.
type runStats struct {
	calS          float64 // the timed window in calibrated seconds
	wall, virtual float64 // the timed window in wall and in virtual seconds
	probeSlowdown float64 // median probe reading over the window, × probeRef
	setups        []float64
	mallocs       uint64
	sysMB, liveMB float64
	numGC         uint32
	gcPauseMs     float64
	switches      uint64
	procs         int
	ctlEvents     int
	boxes         int
	snapshotS     float64
	evaluateS     float64
	closeS        float64
	stage         map[string]float64 // set-up stage → seconds
}

// endToEnd lists the end-to-end metrics in report order; BENCHMARK.json
// carries the same names with their bounds.
var endToEnd = []string{
	"setup_s", "segments_per_cal_s", "realtime_factor", "allocs_per_segment", "mem_live_mb",
	"audio_latency_mean_ms", "audio_latency_p99_ms", "audio_continuity_pct", "delivered_pct",
}

// fillMetrics derives every end-to-end and counted per-layer metric
// from the window's obs deltas and the harness's own measurements.
func fillMetrics(rep *report, wd window, rs runStats) {
	delivered := wd.count("mixer_segments_total") + wd.count("display_segments_total")
	// Every way the data path can lose a segment it was asked to carry.
	dropped := wd.sumSuffix("_drops_total") + wd.sumSuffix("_unrouted_total") +
		wd.count("decouple_refused_total") + wd.count("mixer_lost_segments_total")
	rep.Attempted = uint64(delivered + dropped)
	rep.Failed = uint64(dropped)
	if delivered == 0 {
		rep.Correct = false
		rep.Problems = append(rep.Problems, "no segment was delivered in the timed window")
	}
	per := func(v float64) float64 {
		if delivered == 0 {
			return 0
		}
		return v / delivered
	}

	e := rep.EndToEnd
	e["setup_s"] = metric{median(rs.setups), "s"}
	e["segments_per_cal_s"] = metric{delivered / rs.calS, "1/s"}
	e["realtime_factor"] = metric{rs.virtual / rs.calS, "ratio"}
	e["allocs_per_segment"] = metric{per(float64(rs.mallocs)), "count"}
	e["mem_live_mb"] = metric{rs.liveMB, "MB"}
	n, mean, p99 := wd.latency()
	rep.Samples = n
	e["audio_latency_mean_ms"] = metric{mean, "virtual_ms"}
	e["audio_latency_p99_ms"] = metric{p99, "virtual_ms"}
	silencePct := pct(wd.count("clawback_silence_total"), wd.count("clawback_popped_total"))
	e["audio_continuity_pct"] = metric{100 - silencePct, "%"}
	failedPct := pct(dropped, delivered+dropped)
	e["delivered_pct"] = metric{100 - failedPct, "%"}

	l := rep.PerLayer
	put := func(name string, v float64, unit string) { l[name] = metric{v, unit} }
	put("occam.switches_per_segment", per(float64(rs.switches)), "count")
	put("occam.procs", float64(rs.procs), "count")
	put("allocator.grants_per_segment", per(wd.count("allocator_grants_total")), "count")
	put("allocator.starvations", wd.count("allocator_starvations_total"), "count")
	put("decouple.pushed_per_segment", per(wd.count("decouple_pushed_total")), "count")
	put("decouple.refused", wd.count("decouple_refused_total"), "count")
	put("decouple.stalled", wd.count("decouple_stalled_total"), "count")
	put("clawback.pushed", wd.count("clawback_pushed_total"), "count")
	put("clawback.silence_pct", silencePct, "%")
	put("clawback.claw_drops", wd.count("clawback_claw_drops_total"), "count")
	put("clawback.limit_drops", wd.count("clawback_limit_drops_total"), "count")
	put("mixer.ticks", wd.count("mixer_ticks_total"), "count")
	put("mixer.segments", wd.count("mixer_segments_total"), "count")
	put("mixer.lost", wd.count("mixer_lost_segments_total"), "count")
	put("mixer.concealed", wd.count("mixer_concealed_total"), "count")
	put("mixer.late_duplicates", wd.count("mixer_late_duplicates_total"), "count")
	put("video.frames", wd.count("display_frames_total"), "count")
	put("video.display_segments", wd.count("display_segments_total"), "count")
	put("video.decode_errors", wd.count("display_decode_errors_total"), "count")
	put("box.switched", wd.count("switch_switched_total"), "count")
	put("box.switch_drops", wd.count("switch_age_drops_total")+wd.count("switch_full_drops_total")+
		wd.count("switch_shed_drops_total"), "count")
	put("box.late_ticks", wd.count("audio_late_ticks_total"), "count")
	put("box.mic_drops", wd.count("audio_mic_drops_total"), "count")
	put("box.copies_max", wd.after.max["net_copies_max"], "count")
	put("atm.link_forwarded", wd.count("atm_link_forwarded_total"), "count")
	put("atm.link_drops", wd.count("atm_link_queue_drops_total")+wd.count("atm_link_loss_drops_total"), "count")
	put("fabric.forwarded", wd.count("fabric_port_forwarded_total"), "count")
	put("fabric.cells_per_segment", per(wd.count("fabric_port_cells_total")), "count")
	put("fabric.drops", wd.count("fabric_port_ingress_drops_total")+wd.count("fabric_port_egress_drops_total")+
		wd.count("fabric_port_shed_drops_total"), "count")
	put("fabric.unrouted", wd.count("fabric_port_unrouted_total"), "count")
	put("core.tree_repairs", wd.count("tree_repairs_total"), "count")
	put("core.tree_depth", wd.after.max["tree_depth"], "count")
	put("core.tree_copies_max", wd.after.max["tree_copies_max"], "count")
	put("core.ctl_events", float64(rs.ctlEvents), "count")
	put("balancer.admitted", wd.count("balancer_admitted_total"), "count")
	put("balancer.rejected", wd.count("balancer_rejected_total"), "count")
	put("balancer.placements", wd.count("balancer_placements_total"), "count")
	put("balancer.migrations", wd.count("balancer_migrations_total"), "count")
	put("degrade.ticks", wd.count("degrade_ticks_total"), "count")
	put("degrade.sheds_video", wd.count("degrade_shed_total/video"), "count")
	put("degrade.sheds_audio", wd.count("degrade_shed_total/audio"), "count")
	put("degrade.restores", wd.count("degrade_restore_total"), "count")
	put("scenario.generate_s", rs.stage["generate"], "s")
	put("scenario.parse_s", rs.stage["parse"], "s")
	put("scenario.build_s", rs.stage["build"], "s")
	put("scenario.warmup_s", rs.stage["warmup"], "s")
	put("scenario.build_us_per_box", 1e6*rs.stage["build"]/float64(rs.boxes), "us")
	put("scenario.evaluate_s", rs.evaluateS, "s")
	put("scenario.close_s", rs.closeS, "s")
	put("obs.snapshot_s", rs.snapshotS, "s")
	put("obs.samples", float64(wd.after.samples), "count")
	put("go.mem_sys_mb", rs.sysMB, "MB")
	put("go.num_gc", float64(rs.numGC), "count")
	put("go.gc_pause_ms", rs.gcPauseMs, "ms")
	put("run.probe_slowdown", rs.probeSlowdown, "ratio")
	put("run.wall_s", rs.wall, "s")
	put("run.segments_per_wall_s", delivered/rs.wall, "1/s")
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}
