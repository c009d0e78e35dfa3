"""scripts/plot_results.py against CSVs as the CLI writes them."""

import importlib.util
import math
from pathlib import Path
from unittest import mock

from aerialfl.cli import write_csv

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "plot_results.py"
_spec = importlib.util.spec_from_file_location("plot_results", _SCRIPT)
plot_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(plot_results)


def test_plot_coverage_draws_a_partial_failure_row_as_nan(tmp_path):
    # cmd_coverage leaves every value cell of a failed height empty.
    rows = [
        [20.0, 0.5, 0.6, 0.7, 0.49, 0.61, 0.72, 0.01],
        [25.0] + [None] * 7,
        [30.0, 0.4, 0.5, 0.6, None, None, None, None],
    ]
    path = tmp_path / "coverage.csv"
    write_csv(
        path,
        ["h", "analytic_joint", "analytic_ul", "analytic_dl",
         "mc_joint", "mc_ul", "mc_dl", "mc_halfwidth"],
        rows,
        {"generator": "test"},
        ["partial-failure: height=25: boom"],
    )
    # matplotlib is optional, so a mock stands in for pyplot.
    plt, fig, ax = mock.Mock(), mock.Mock(), mock.Mock()
    plt.subplots.return_value = (fig, ax)
    plot_results.plot_coverage(path, tmp_path, plt)
    fig.savefig.assert_called_once_with(tmp_path / "coverage.png", dpi=150)
    lines = {c.kwargs["label"]: c.args for c in ax.plot.call_args_list}
    assert set(lines) == {
        "joint (analytic)", "UL (analytic)", "DL (analytic)", "joint (Monte-Carlo)"
    }
    for h, y, *_ in lines.values():
        assert h == [20.0, 25.0, 30.0]
        assert math.isnan(y[1])
    assert lines["joint (analytic)"][1][::2] == [0.5, 0.4]
    mc = lines["joint (Monte-Carlo)"][1]
    assert mc[0] == 0.49 and math.isnan(mc[2])
