"""E17 / Table 2: FP16 / INT8 / MCBP-standard / MCBP-aggressive fidelity."""

import pytest

from repro.eval import accuracy_proxy_table, format_nested_table

from .conftest import print_result


def test_table2_accuracy(benchmark):
    table = benchmark(lambda: accuracy_proxy_table(model_name="tiny", n_prompts=3))
    print_result(
        "Table 2 (fidelity analogue) -- output agreement with the FP16 reference",
        format_nested_table(table, row_label="mode"),
    )
    # the reference against itself; a float reduction may land 1 ulp short
    assert table["FP16"]["cosine"] == pytest.approx(1.0, abs=1e-12)
    # INT8 quantisation is nearly lossless (paper: <1 % accuracy drop)
    assert table["INT8"]["cosine"] > 0.99
    # MCBP standard tracks INT8; aggressive trades a small further drop
    assert table["MCBP (S)"]["cosine"] > 0.95
    assert table["MCBP (A)"]["accuracy_proxy"] <= table["MCBP (S)"]["accuracy_proxy"] + 1e-9
    assert table["MCBP (A)"]["pseudo_perplexity"] >= table["FP16"]["pseudo_perplexity"] - 1e-9
