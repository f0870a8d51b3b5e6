"""Property-based end-to-end test: randomly generated loop-nest programs
must produce identical results through every pipeline.

This is the strongest invariant of the reproduction: whatever the
control-centric and data-centric passes do, program semantics must be
preserved (the paper's correctness claim that DCIR "recovers the semantics
necessary ... to match the original input codes").
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import compile_and_run

_OPS = ["+", "-", "*"]


@st.composite
def _programs(draw):
    """Generate a small C kernel with 1–2 arrays and 2–3 loop nests."""
    n = draw(st.integers(4, 10))
    use_second_array = draw(st.booleans())
    op1 = draw(st.sampled_from(_OPS))
    op2 = draw(st.sampled_from(_OPS))
    coeff = draw(st.integers(1, 5))
    offset = draw(st.integers(0, 3))
    use_if = draw(st.booleans())
    use_accumulate = draw(st.booleans())
    # A reduction into an array element: invariant in its whole nest, in the
    # inner parameter only, or indexed through a loaded value.
    reduction = draw(st.sampled_from([None, "whole", "inner", "loaded"]))
    m = draw(st.integers(1, 4))

    lines = ["double kernel() {", f"  double A[{n}];"]
    if use_second_array:
        lines.append(f"  double B[{n}];")
    lines.append("  double s = 0.0;")
    lines.append(f"  for (int i = 0; i < {n}; i++)")
    lines.append(f"    A[i] = (i {op1} {coeff}) * 0.5 + {offset};")
    if use_second_array:
        lines.append(f"  for (int i = 0; i < {n}; i++)")
        if use_if:
            lines.append("    if (i % 2 == 0)")
            lines.append(f"      B[i] = A[i] {op2} 1.5;")
            lines.append("    else")
            lines.append("      B[i] = A[i];")
        else:
            lines.append(f"    B[i] = A[i] {op2} 1.5;")
        source_array = "B"
    else:
        source_array = "A"
    lines.append(f"  for (int i = 0; i < {n}; i++)")
    if use_accumulate:
        lines.append(f"    s += {source_array}[i];")
    else:
        lines.append(f"    s = s + {source_array}[i] * 2.0;")
    if reduction is not None:
        lines.insert(2, f"  double R[{n}]; int idx[1];")
        lines.append(f"  for (int i = 0; i < {n}; i++) R[i] = i * 0.25;")
        lines.append(f"  idx[0] = {offset % n};")
        lines.append(f"  for (int i = 0; i < {n}; i++)")
        lines.append(f"    for (int j = 0; j < {m}; j++)")
        target = {"whole": f"R[{coeff % n}]", "inner": "R[i]", "loaded": "R[idx[0]]"}[reduction]
        lines.append(f"      {target} += {source_array}[i] {op1} (j + 1) * 0.5;")
        lines.append(f"  for (int i = 0; i < {n}; i++) s += R[i];")
    lines.append("  return s;")
    lines.append("}")
    return "\n".join(lines)


@given(_programs())
@settings(max_examples=25, deadline=None)
def test_property_all_pipelines_agree(source):
    reference = compile_and_run(source, "gcc").return_value
    for pipeline in ("clang", "mlir", "dace", "dcir"):
        result = compile_and_run(source, pipeline).return_value
        assert result == pytest.approx(reference, rel=1e-9), (
            f"{pipeline} disagrees with gcc on:\n{source}"
        )


@given(st.integers(3, 12), st.integers(1, 4))
@settings(max_examples=15, deadline=None)
def test_property_stencil_agrees(n, timesteps):
    source = f"""
    double kernel() {{
      double A[{n}]; double B[{n}];
      for (int i = 0; i < {n}; i++) {{ A[i] = i * 0.25; B[i] = 0.0; }}
      for (int t = 0; t < {timesteps}; t++) {{
        for (int i = 1; i < {n} - 1; i++)
          B[i] = 0.5 * (A[i - 1] + A[i + 1]);
        for (int i = 1; i < {n} - 1; i++)
          A[i] = B[i];
      }}
      double s = 0.0;
      for (int i = 0; i < {n}; i++) s += A[i];
      return s;
    }}
    """
    reference = compile_and_run(source, "gcc").return_value
    assert compile_and_run(source, "dcir").return_value == pytest.approx(reference, rel=1e-9)
    assert compile_and_run(source, "dace").return_value == pytest.approx(reference, rel=1e-9)
