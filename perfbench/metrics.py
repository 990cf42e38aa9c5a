"""The benchmark's metrics; BENCHMARK.json lists the same names and units.

Standard library only.
"""

from workloads import GATE_CRITERIA

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("op_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pass_ratio", "ratio", "higher", 0.05),
    ("err_ratio_max", "ratio", "lower", 0.25),
]

# (name, unit, better, span that must be called for the metric to count
# anything).  Traced runs report these; the tracer computes all but the
# cache counts (counted by the runner) and trace.overhead.
PER_LAYER = [
    ("solver.solve.calls", "count", "lower", "solver.solve_plane"),
    ("solver.solve_plane.self_s", "s", "lower", "solver.solve_plane"),
    ("solver.solve_halfplane.self_s", "s", "lower", "solver.solve_halfplane"),
    ("solver.solve_disk.self_s", "s", "lower", "solver.solve_disk"),
    ("solver.neumann_iters", "count", "lower", "solver.solve_plane"),
    ("solver.padded_fft_computed", "count", "lower", "solver.solve_plane"),
    ("solver.padded_fft_bytes_computed", "B", "lower", "solver.solve_plane"),
    ("solver.solve.repeat_share", "ratio", "lower", "solver.solve_plane"),
    ("solver.qcmap_eval.points", "count", "lower", "solver.qcmap_eval"),
    ("solver.qcmap_eval.self_s", "s", "lower", "solver.qcmap_eval"),
    ("solver.invert.points", "count", "lower", "solver.invert"),
    ("solver.invert.self_s", "s", "lower", "solver.invert"),
    ("solver.invert.stalls", "count", "lower", "solver.invert"),
    ("solver.errors", "count", "lower", None),
    ("solver.cache_files_written", "count", "lower", None),
    ("solver.cache_bytes_written", "B", "lower", None),
    ("solver.self_s", "s", "lower", None),
    ("domains.series_eval.calls", "count", "lower", "domains.series_eval"),
    ("domains.series_eval.points", "count", "lower", "domains.series_eval"),
    ("domains.series_eval.terms_computed", "count", "lower",
     "domains.series_eval"),
    ("domains.series_eval.self_s", "s", "lower", "domains.series_eval"),
    ("domains.coef_eval.points", "count", "lower", "domains.coef_eval"),
    ("domains.coef_eval.self_s", "s", "lower", "domains.coef_eval"),
    ("domains.mp_norm.self_s", "s", "lower", "domains.mp_norm"),
    ("domains.ap_norm.self_s", "s", "lower", "domains.ap_norm"),
    ("domains.ainf_norm.self_s", "s", "lower", "domains.ainf_norm"),
    ("domains.ladder_levels", "count", "lower", "domains.mp_norm"),
    ("domains.ladder_divergent", "count", "lower", "domains.mp_norm"),
    ("domains.self_s", "s", "lower", None),
    ("bers.bers_map.calls", "count", "lower", "bers.bers_map"),
    ("bers.bers_map.self_s", "s", "lower", "bers.bers_map"),
    ("bers.laurent_coefficients.self_s", "s", "lower",
     "bers.laurent_coefficients"),
    ("bers.schwarzian.self_s", "s", "lower", "bers.schwarzian"),
    ("bers.ahlfors_weill.calls", "count", "lower", "bers.ahlfors_weill"),
    ("bers.self_s", "s", "lower", None),
    ("boundary.welding.calls", "count", "lower", "boundary.welding"),
    ("boundary.welding.self_s", "s", "lower", "boundary.welding"),
    ("boundary.eval.points", "count", "lower", "boundary.eval"),
    ("boundary.eval.extension_points", "count", "lower", "boundary.eval"),
    ("boundary.eval.self_s", "s", "lower", "boundary.eval"),
    ("boundary.besov_seminorm.self_s", "s", "lower",
     "boundary.besov_seminorm"),
    ("boundary.besov_pairs_computed", "count", "lower",
     "boundary.besov_seminorm"),
    ("boundary.ba_extend.self_s", "s", "lower", "boundary.ba_extend"),
    ("boundary.extension_mu.points", "count", "lower",
     "boundary.extension_mu"),
    ("boundary.extension_mu.self_s", "s", "lower", "boundary.extension_mu"),
    ("boundary.boundary_trace.self_s", "s", "lower",
     "boundary.boundary_trace"),
    ("boundary.log_derivative.self_s", "s", "lower",
     "boundary.log_derivative"),
    ("boundary.welding_identity_check.self_s", "s", "lower",
     "boundary.welding_identity_check"),
    ("boundary.roundtrip_phi_distance.calls", "count", "lower",
     "boundary.roundtrip_phi_distance"),
    ("boundary.self_s", "s", "lower", None),
]
PER_LAYER += [(f"verification.check_{c}.s", "s", "lower",
             f"verification.check_{c}") for c in GATE_CRITERIA]
PER_LAYER += [
    ("verification.failed", "count", "lower", None),
    ("verification.self_s", "s", "lower", None),
    ("cli.run.calls", "count", "lower", "cli.run"),
    ("cli.run.s", "s", "lower", "cli.run"),
    ("cli.to_json.s", "s", "lower", "cli.to_json"),
    ("cli.report_bytes", "B", "lower", "cli.to_json"),
    ("cli.errors", "count", "lower", None),
    ("cli.self_s", "s", "lower", None),
    ("trace.spans", "count", "lower", None),
    ("trace.overhead", "ratio", "lower", None),
]
