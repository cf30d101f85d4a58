"""Extension bench: is proactive scheduling complementary to PUNO?

Section V argues PUNO is "orthogonal and complementary" to proactive
contention managers like ATS [29].  This bench runs an ATS-style
scheduler alone and composed with PUNO on a high-contention workload.
"""

from repro.sim.config import SystemConfig
from repro.analysis.report import render_table

from conftest import run_cells, write_result


def _run():
    variants = {
        "baseline": ("baseline", SystemConfig()),
        "puno": ("puno", SystemConfig().with_puno()),
        "ats": ("ats", SystemConfig()),
        "ats+puno": ("ats+puno", SystemConfig().with_puno()),
    }
    return run_cells({label: ("labyrinth", cm, cfg)
                      for label, (cm, cfg) in variants.items()})


def test_ext_ats(benchmark):
    stats = benchmark.pedantic(_run, rounds=1, iterations=1)
    base = stats["baseline"]
    rows = []
    for label, s in stats.items():
        rows.append({
            "scheme": label,
            "aborts x": round(s.tx_aborted / max(base.tx_aborted, 1), 3),
            "exec x": round(s.execution_cycles / base.execution_cycles, 3),
            "gd x": round(s.gd_ratio() / max(base.gd_ratio(), 1e-9), 3),
        })
    text = render_table(rows, title="Extension — ATS scheduling vs/with "
                                    "PUNO (labyrinth)")
    write_result("ext_ats", text)
    # the composition must not break anything
    assert stats["ats+puno"].tx_committed == base.tx_committed
    # ATS reduces aborts on this workload (it serializes)
    assert stats["ats"].tx_aborted < base.tx_aborted