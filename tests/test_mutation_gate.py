"""`verify all` catches a wrong closed form, series kernel, type count, label
code, descent count or edge labeling.

Each case copies `src/` into a temporary directory, replaces one exact line
fragment of one module (it must occur there exactly once) and runs
`python -m expdowling verify all` on the copy, which must exit 1: some report
mismatches.

Three one-line mutants are known to survive `verify all` (it exits 0), so
they are not cases here:
- `below = False` in `structures._cover_moves` (an absorb that ignores its
  absorbable parts) adds redundant cover pairs, which the Mobius walk
  refuses, but no `verify all` suite walks a family with absorbable parts;
- `k == 2` for `k >= 2` there (no merge of three or more blocks) drops a
  class of covers, and the closed side of `restricted_mu_check` is built
  from the Mobius sums of the same posets, so the identity holds for the
  smaller family too; the default I = {2} has no such cover;
- `pos_label(min(b2))` in `shelling.wachs_pairs` gives no rising violation
  on any interval of Pi_7^{2,3}, Pi_8^{2,2}, Pi_9^{2,3} or Pi_9^{2,1}: it
  looks like a second EL labeling, and the tests pin the written-out labels.
"""

import os
import shutil
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# (module, original fragment, mutant fragment)
MUTANTS = [
    pytest.param("identities", "return -log(series_from_table(a, T))",
                 "return log(series_from_table(a, T))", id="exponential_form-sign"),
    pytest.param("identities", "pow_rational(A, Fraction(-1, s))",
                 "pow_rational(A, Fraction(1, s))", id="dowling_form-exponent"),
    pytest.param("identities", "A = series_from_table(a, T).scale_argument(s)",
                 "A = series_from_table(a, T)", id="dowling_form-unscaled"),
    pytest.param("series", "((q1 * k - n) * c[k]", "((q1 * k - n + 1) * c[k]",
                 id="pow_rational-recurrence"),
    pytest.param("series", "k * g[k] * c[n - k] for k in range(1, n)",
                 "k * g[k] * c[n - k] for k in range(2, n)", id="log-recurrence"),
    pytest.param("structures", "den = s**t.b * math.factorial(t.b)",
                 "den = math.factorial(t.b)", id="count_of_type-denominator"),
    pytest.param("structures", "(label + alpha) % s", "(label + 2 * alpha) % s",
                 id="_block_of-shift"),
    pytest.param("descents", "(-1) ** (len(descents) - size)", "(-1) ** size",
                 id="des_q-sign"),
    pytest.param("descents", "gaussian(n - 1, k).shift(k)", "gaussian(n - 1, k).shift(k - 1)",
                 id="gaussian-shift"),
    pytest.param("descents", "for k in range(1, i + 1):", "for k in range(1, i):",
                 id="euler_number-range"),
    pytest.param("shelling", "return 1 if n == 0 else 0", "return 1", id="descent_class_size-j1"),
    pytest.param("shelling", "return neg_label(max(b1))", "return neg_label(min(b1))",
                 id="wachs_pairs-neg-label"),
    pytest.param("shelling", "key=lambda a: a_tilde(elements[a]))",
                 "key=lambda a: a_tilde(elements[a]), reverse=True)", id="wachs_pairs-atom-order"),
]


@pytest.mark.parametrize("module,original,mutant", MUTANTS)
def test_verify_all_fails_on_mutant(tmp_path, module, original, mutant):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "expdowling" / f"{module}.py"
    text = path.read_text()
    assert text.count(original) == 1, original
    path.write_text(text.replace(original, mutant))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "expdowling", "verify", "all"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 1, (proc.returncode, proc.stderr[-2000:])
