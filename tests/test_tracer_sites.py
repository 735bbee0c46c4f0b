"""The benchmark's traced runs find the functions they time.

``bench/tracer.py`` installs its timing wrappers where each ``treepolicy``
module looks the functions up, and reports a layer whose sites are gone as
absent instead of failing. So a refactor that renames or stops importing one of
them would silently drop that layer's metrics; this test names it instead.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).parents[1] / "bench" / "tracer.py"

# sites already gone: distill.train_student became train_students, and
# diffmath.dense_forward became dense_forward_batch; the tracer still names the
# old attributes
KNOWN_ABSENT = {"treepolicy.teacher:dense_forward", "treepolicy.distill:dense_forward",
                "treepolicy.evalkit:dense_forward", "treepolicy.distill:train_student"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_lookup_site_resolves():
    tracer = load_tracer()
    sites = {site for _, layer_sites in tracer.LAYERS for site in layer_sites}
    assert {"treepolicy.teacher:train_step", "treepolicy.teacher:select_action",
            "treepolicy.teacher:adam_step", "treepolicy.distill:forward_batch",
            "treepolicy.distill:gradients_batch", "treepolicy.distill:adam_step"} <= sites
    assert KNOWN_ABSENT <= sites
    absent = {site for site in sites if tracer._resolve(site) is None}
    assert absent == KNOWN_ABSENT
