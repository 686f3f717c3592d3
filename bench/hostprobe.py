"""A fixed reference computation that measures how fast the host runs right now.

The benchmark shares a few cores of a host with other tenants, whose load
slows every computation here by up to about 40 % for tens of seconds at a
time.  Latencies taken in a slow spell and in a calm one differ by more than
any regression bound, whatever statistic a run takes of them.  ``probe()``
runs the same work every time, independent of posgen, shaped like a report:
interpreter-bound Python, small stacked ``eigh`` calls with ``einsum``,
``scipy.linalg.expm`` on small matrices and JSON encoding.  ``run.py`` times
it after every window of about a second of warm reports and scales that
window's timings by ``REFERENCE_S`` over the probe's time, so that a slow
spell cancels out while a slower posgen still shows in full.

Fresh processes spend most of their time starting Python and importing
numpy and scipy, which slow spells hit differently.  ``python3 hostprobe.py``
does just that and probes once; ``run.py`` runs it after every cold report
and scales set-up and cold times by ``FRESH_REFERENCE_S`` over its median.
"""

import json
import time

import numpy as np
import scipy.linalg

# typical times on a calm host (2 vCPUs of an x86-64 Haswell-class server) of
# probe() and of ``python3 hostprobe.py``, which starts, imports numpy and
# scipy and probes once; they only set the scale of the figures
REFERENCE_S = 0.015
FRESH_REFERENCE_S = 0.5

_rng = np.random.default_rng(20010)
_HERM = {}
for _n in (4, 8):
    _a = _rng.standard_normal((16, _n, _n)) + 1j * _rng.standard_normal((16, _n, _n))
    _HERM[_n] = _a + _a.conj().transpose(0, 2, 1)
_VEC = _rng.standard_normal((16, 8)) + 1j * _rng.standard_normal((16, 8))
_GEN = {n: _rng.standard_normal((n, n)) for n in (9, 16)}
_DOC = {"conditions": [{"id": f"c{i}", "margin": float(x), "samples": i * 37}
                       for i, x in enumerate(_rng.standard_normal(40))]}


def _work() -> float:
    acc = 0.0
    for _ in range(40):
        for n, h in _HERM.items():
            w, v = np.linalg.eigh(h)
            acc += float(np.einsum("kij,kj->ki", v, _VEC[:, :n]).conj().real.sum())
            acc += float(w.argmin())
    for a in _GEN.values():
        for t in (0.05, 0.1, 0.2):
            acc += float(scipy.linalg.expm(t * a)[0, 0])
    for _ in range(3):
        acc += len(json.dumps(_DOC, sort_keys=True))
    table = {}
    for i in range(30000):
        table[i % 101] = table.get(i % 101, 0.0) + i * 0.5
    return acc + table[7]


def probe() -> float:
    """Wall time in seconds of one run of the reference computation."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


if __name__ == "__main__":
    probe()
