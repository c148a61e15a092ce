"""Figure 4: the baseline (BASE) machine configuration table."""

from repro.analysis.figures import FIGURES, render_figure


def test_fig04_configuration(benchmark):
    text = benchmark.pedantic(render_figure, args=(FIGURES["fig04"], {}), rounds=1, iterations=1)
    print()
    print(text)
    assert "80-entry ROB" in text
