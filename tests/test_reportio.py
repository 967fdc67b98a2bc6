"""The shared canonical JSON report writer (:mod:`repro.harness.reportio`)."""

from repro.harness import reportio


class TestReportIO:
    def test_canonical_form(self):
        text = reportio.dumps_report({"b": 1, "a": [2, 3]})
        # sorted keys, two-space indent, trailing newline — the exact
        # bytes every golden report in the repo was written with
        assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "sub" / "report.json"
        doc = {"schema": "x/v1", "rows": [{"n": 1}]}
        reportio.write_report(doc, str(path))
        assert reportio.load_report(str(path)) == doc
        # parent directories are created on demand
        assert path.parent.is_dir()

    def test_write_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        reportio.write_report({"z": 0, "a": 1}, str(a))
        reportio.write_report({"a": 1, "z": 0}, str(b))
        assert a.read_bytes() == b.read_bytes()
