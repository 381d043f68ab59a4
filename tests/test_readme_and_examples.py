"""Keep documentation honest: the README snippet and every example run.

Examples execute in-process via ``runpy`` (they all end with a
``main()`` guard), so a broken public API breaks this suite immediately.
"""

import pathlib
import runpy

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted(
    path.name for path in (REPO_ROOT / "examples").glob("*.py")
)


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        """The exact code block from README.md."""
        from repro import WSRegisterEmulation, check_ws_regular
        from repro.sim.ids import ServerId

        emu = WSRegisterEmulation(k=2, n=5, f=2)
        writer = emu.add_writer(0)
        reader = emu.add_reader()

        writer.enqueue("write", "hello")
        emu.system.run_to_quiescence()

        emu.kernel.crash_server(ServerId(0))
        emu.kernel.crash_server(ServerId(3))

        reader.enqueue("read")
        emu.system.run_to_quiescence()
        assert emu.history.reads[-1].result == "hello"
        assert not check_ws_regular(emu.history)

    def test_package_docstring_quickstart(self):
        import repro

        assert "WSRegisterEmulation" in (repro.__doc__ or "")


class TestExamplesRun:
    def test_expected_examples_present(self):
        assert EXAMPLES == [
            "cloud_kv_demo.py",
            "covering_attack.py",
            "figure2_trace.py",
            "layout_explorer.py",
            "quickstart.py",
            "shared_fleet.py",
            "straggler_fleet.py",
        ]

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
    def test_doc_names_every_example(self, doc):
        text = (REPO_ROOT / doc).read_text(encoding="utf-8")
        assert [name for name in EXAMPLES if f"`{name}`" not in text] == []

    @pytest.mark.parametrize("example", EXAMPLES)
    def test_example_executes(self, example, capsys):
        runpy.run_path(
            str(REPO_ROOT / "examples" / example), run_name="__main__"
        )
        out = capsys.readouterr().out
        assert out.strip(), f"{example} printed nothing"
