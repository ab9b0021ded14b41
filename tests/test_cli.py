"""Command-line surface: every subcommand plus config-file semantics."""

import json
import os
import re
import shutil
import sys

import pytest

from botfuse import extra_trees, fusion_pipeline
from botfuse.cli import build_parser, main
from botfuse.comm_graph import build_graph, propagation_matrix, save_graph
from botfuse.flow_features import extract_node_features
from botfuse.flow_ingest import (
    FlowRecord,
    filter_tcp_udp,
    parse_flow_file,
    slice_windows,
    write_flows_csv,
)
from botfuse.fusion_pipeline import json_lines, normalize_embedding, train_detector
from botfuse.gcn_core import forward, init_gcn, load_model, save_model
from botfuse.pretrain import default_pretrain_dataset, load_graph_dataset
from botfuse.synth_flows import FlowBenchSpec, generate_flow_benchmark
from fork_checks import assert_no_child_left, counted_forks, in_process_only


@pytest.fixture(scope="module")
def art(tmp_path_factory):
    """Small artifact chain built through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    flows = root / "flows.csv"
    graphs = root / "graphs"
    model = root / "model.bin"
    ens = root / "trees.json"

    assert main([
        "synth", "--kind", "flows", "--out", str(flows),
        "--n-background", "60", "--n-bots", "8", "--seed", "3",
    ]) == 0
    assert main([
        "synth", "--kind", "graphs", "--out", str(graphs),
        "--n-graphs", "4", "--n-background", "30", "--n-bots", "6", "--seed", "1",
    ]) == 0
    assert main([
        "pretrain", "--arch", "c2", "--data", str(graphs), "--depth", "2",
        "--max-epochs", "5", "--patience", "2", "--out", str(model),
    ]) == 0
    assert main([
        "train", "--flows", str(flows), "--model", str(model),
        "--n-trees", "10", "--out", str(ens),
    ]) == 0
    return {"root": root, "flows": flows, "graphs": graphs, "model": model, "ens": ens}


class TestSynth:
    def test_flow_benchmark_round_trips(self, art, capsys):
        out = capsys.readouterr().out
        records = parse_flow_file(art["flows"]).records
        assert len(records) > 500
        assert any(r.src_ip.startswith("10.1.") for r in records)

    def test_graph_corpus_layout(self, art):
        files = sorted(art["graphs"].glob("*.json"))
        assert [f.name for f in files] == [f"graph_c2_{i:03d}.json" for i in range(4)]
        loaded = load_graph_dataset(art["graphs"])
        assert len(loaded) == 4
        assert all(g.n == 37 for g in loaded)

    def test_graphs_without_sizes_take_the_pretraining_defaults(self, tmp_path):
        assert main(["synth", "--kind", "graphs", "--arch", "p2p", "--n-graphs", "2",
                     "--seed", "5", "--out", str(tmp_path / "cli")]) == 0
        for i, g in enumerate(default_pretrain_dataset("p2p", 2, 5)):
            save_graph(g, tmp_path / "lib.json")
            name = f"graph_p2p_{i:03d}.json"
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib.json").read_bytes()

    def test_flows_without_sizes_take_the_spec_defaults(self, tmp_path):
        cli, lib = tmp_path / "cli.csv", tmp_path / "lib.csv"
        assert main(["synth", "--kind", "flows", "--arch", "p2p", "--duration", "30",
                     "--seed", "5", "--out", str(cli)]) == 0
        spec = FlowBenchSpec(architecture="p2p", duration=30.0, seed=5)
        write_flows_csv(generate_flow_benchmark(spec), lib)
        assert cli.read_bytes() == lib.read_bytes()

    @pytest.mark.parametrize("duration", ["0", "-5", "nan", "inf"])
    def test_refuses_a_duration_that_is_not_finite_and_positive(self, tmp_path, capsys,
                                                               duration):
        out = tmp_path / "flows.csv"
        assert main(["synth", "--kind", "flows", "--duration", duration,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: duration must be finite and > 0")
        assert not out.exists()

    @pytest.mark.parametrize("n_graphs", ["0", "-1"])
    def test_refuses_fewer_than_one_graph(self, tmp_path, capsys, n_graphs):
        out = tmp_path / "graphs"
        assert main(["synth", "--kind", "graphs", "--n-graphs", n_graphs,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: n_graphs must be >= 1, got {n_graphs}")
        assert not out.exists()

    def test_help_names_the_defaults_of_both_kinds(self, capsys):
        with pytest.raises(SystemExit):
            main(["synth", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "default 400 for flows, 880 for graphs" in help_text
        assert "default 16 for flows, 110 for graphs" in help_text
        assert "--n-graphs N_GRAPHS graph count for --kind graphs" in help_text
        assert "--duration DURATION trace length in seconds for --kind flows" in help_text


class TestPretrain:
    def test_model_file_and_report(self, art, tmp_path, capsys):
        model = load_model(art["model"])
        assert model.frozen
        assert model.depth == 2
        report = tmp_path / "report.jsonl"
        rc = main([
            "pretrain", "--arch", "c2", "--data", str(art["graphs"]), "--depth", "2",
            "--max-epochs", "3", "--patience", "1",
            "--out", str(tmp_path / "m.bin"), "--report", str(report),
        ])
        assert rc == 0
        assert "best val_acc" in capsys.readouterr().out
        rows = [json.loads(line) for line in report.read_text().splitlines()]
        assert rows
        assert set(rows[0]) == {"epoch", "loss", "val_acc"}

    def test_graph_file_with_mistyped_fields_fails_cleanly(self, art, tmp_path, capsys):
        good = json.loads(next(art["graphs"].glob("*.json")).read_text())
        for field, value in (("labels", 5), ("meta", 5), ("n", 3.0), ("n", True)):
            bad = tmp_path / "g.json"
            bad.write_text(json.dumps({**good, field: value}))
            rc = main(["pretrain", "--data", str(bad), "--depth", "2", "--max-epochs", "1",
                       "--out", str(tmp_path / "m.bin")])
            assert rc == 1
            assert capsys.readouterr().err.startswith("error: graph schema violation: ")
        assert not (tmp_path / "m.bin").exists()

    def test_graph_files_with_fractional_endpoints_fail_cleanly(self, art, tmp_path, capsys):
        data = tmp_path / "graphs"
        data.mkdir()
        for path in sorted(art["graphs"].glob("*.json")):
            payload = json.loads(path.read_text())
            payload["edges"] = [[i + 0.5, j + 0.5] for i, j in payload["edges"]]
            (data / path.name).write_text(json.dumps(payload))
        rc = main(["pretrain", "--data", str(data), "--depth", "2", "--max-epochs", "1",
                   "--out", str(tmp_path / "m.bin")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: graph schema violation: bad edge [0.5")
        assert not (tmp_path / "m.bin").exists()

    def test_graph_file_that_is_not_utf8_names_the_file(self, art, tmp_path, capsys):
        data = tmp_path / "graphs"
        shutil.copytree(art["graphs"], data)
        bad = data / "graph_c2_999.json"
        bad.write_bytes(b"\xff\xfe{}")
        rc = main(["pretrain", "--data", str(data), "--depth", "2", "--max-epochs", "1",
                   "--out", str(tmp_path / "m.bin")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: graph schema violation: {bad} is not valid JSON ('utf-8' codec can't "
            "decode byte 0xff in position 0: invalid start byte)\n")
        assert not (tmp_path / "m.bin").exists()


class TestFeatures:
    def test_json_lines_to_file(self, art, tmp_path):
        out = tmp_path / "feats.jsonl"
        rc = main(["features", "--flows", str(art["flows"]), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) >= 7
        obj = json.loads(lines[0])
        assert set(obj) == {"window_start", "features"}
        first = next(iter(obj["features"].values()))
        assert set(first) == {
            "conn", "fail_conn", "dur", "src_bytes_avg", "dst_bytes_avg",
        }

    def test_stdout_default(self, art, capsys):
        rc = main(["features", "--flows", str(art["flows"])])
        assert rc == 0
        first = capsys.readouterr().out.splitlines()[0]
        json.loads(first)

    def test_line_that_is_not_utf8_leaves_the_output_as_it_was(self, art, tmp_path):
        lines = art["flows"].read_bytes().splitlines(keepends=True)
        dirty = tmp_path / "dirty.csv"
        dirty.write_bytes(b"".join(lines[:5]) + b"\xff" + lines[5] + b"".join(lines[5:]))
        assert parse_flow_file(dirty).malformed == 1
        outs = [tmp_path / "clean.jsonl", tmp_path / "dirty.jsonl"]
        for flows, out in zip([art["flows"], dirty], outs):
            assert main(["features", "--flows", str(flows), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestTrainDetect:
    def test_ensemble_artifact(self, art):
        ens = extra_trees.load_ensemble(art["ens"])
        assert ens.n_trees == 10
        assert ens.n_features == 32

    def test_train_labels_come_from_the_parsed_flows(self, art):
        expect = train_detector(parse_flow_file(art["flows"]).table, load_model(art["model"]),
                                n_trees=10)
        assert art["ens"].read_bytes() == extra_trees.serialize_ensemble(expect)

    def test_library_filters_the_trace_as_the_cli_does(self, art, tmp_path):
        # Non-TCP/UDP copies of every seventh row, one of them from a source
        # no TCP/UDP flow names: the library must drop them as the CLI does.
        rows = art["flows"].read_text().splitlines(keepends=True)
        copies = [row.replace(",tcp,", ",icmp,").replace(",udp,", ",icmp,")
                  for row in rows[1::7]]
        copies.append("31.0,0.5,icmp,10.99.0.1,1,10.0.0.2,80,100,100,bot\n")
        mixed = tmp_path / "mixed.csv"
        mixed.write_text("".join(rows + copies))
        flows = parse_flow_file(mixed).table
        assert sum(r.proto.value == "other" for r in flows.records()) == len(copies)
        ens_path, out = tmp_path / "trees.json", tmp_path / "verdicts.jsonl"
        assert main(["train", "--flows", str(mixed), "--model", str(art["model"]),
                     "--n-trees", "10", "--out", str(ens_path)]) == 0
        assert main(["detect", "--flows", str(mixed), "--model", str(art["model"]),
                     "--ensemble", str(ens_path), "--no-timings", "--out", str(out)]) == 0
        model = load_model(art["model"])
        ens = train_detector(flows, model, n_trees=10)
        assert extra_trees.serialize_ensemble(ens) == ens_path.read_bytes()
        lines = json_lines(fusion_pipeline.detect(flows, model, ens), "c2", include_timings=False)
        assert out.read_text() == "".join(line + "\n" for line in lines)
        # The same bytes as on the trace without the copies.
        assert ens_path.read_bytes() == art["ens"].read_bytes()

    def test_detect_writes_verdict_lines(self, art, tmp_path, capsys):
        out = tmp_path / "verdicts.jsonl"
        rc = main([
            "detect", "--flows", str(art["flows"]), "--model", str(art["model"]),
            "--ensemble", str(art["ens"]), "--out", str(out),
        ])
        assert rc == 0
        assert "flagged" in capsys.readouterr().err
        obj = json.loads(out.read_text().splitlines()[0])
        assert "timings" in obj
        assert obj["architecture"] == "c2"

    def test_detect_summary_line_counts_the_report(self, art, tmp_path, capsys):
        out = tmp_path / "verdicts.jsonl"
        capsys.readouterr()
        assert main(["detect", "--flows", str(art["flows"]), "--model", str(art["model"]),
                     "--ensemble", str(art["ens"]), "--threshold", "0.3",
                     "--out", str(out)]) == 0
        objs = [json.loads(line) for line in out.read_text().splitlines()]
        flagged = sum(obj["n_flagged"] for obj in objs)
        assert 0 < flagged
        assert capsys.readouterr().err == (
            f"flagged {flagged} of {sum(obj['n_nodes'] for obj in objs)} node-windows "
            f"across {len(objs)} windows\n")

    def test_detect_to_stdout_and_to_out_give_the_same_bytes(self, art, tmp_path, capsys):
        argv = ["detect", "--flows", str(art["flows"]), "--model", str(art["model"]),
                "--ensemble", str(art["ens"]), "--no-timings"]
        out = tmp_path / "verdicts.jsonl"
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        printed = capsys.readouterr().out.encode("utf-8")
        assert printed == out.read_bytes()
        assert len(printed.splitlines()) > 1

    def test_detect_skips_non_finite_rows(self, art, tmp_path):
        dirty = tmp_path / "dirty.csv"
        dirty.write_text(
            art["flows"].read_text()
            + "inf,0.5,tcp,10.9.9.1,1,10.9.9.2,2,10,5\n"
            + "30.0,nan,tcp,10.9.9.3,1,10.9.9.4,2,10,5\n"
        )
        argv = ["detect", "--model", str(art["model"]), "--ensemble", str(art["ens"]),
                "--no-timings"]
        assert main(argv + ["--flows", str(dirty), "--out", str(tmp_path / "d.jsonl")]) == 0
        assert main(argv + ["--flows", str(art["flows"]), "--out", str(tmp_path / "c.jsonl")]) == 0
        assert (tmp_path / "d.jsonl").read_bytes() == (tmp_path / "c.jsonl").read_bytes()

    def test_detect_normalizes_with_the_ensembles_mode(self, art, tmp_path):
        ens_path = tmp_path / "trees_per_dimension.json"
        assert main([
            "train", "--flows", str(art["flows"]), "--model", str(art["model"]),
            "--norm-mode", "per_dimension", "--n-trees", "10", "--out", str(ens_path),
        ]) == 0
        out = tmp_path / "verdicts.jsonl"
        assert main([
            "detect", "--flows", str(art["flows"]), "--model", str(art["model"]),
            "--ensemble", str(ens_path), "--no-timings", "--out", str(out),
        ]) == 0
        ens = extra_trees.load_ensemble(ens_path)
        model = load_model(art["model"])
        windows = slice_windows(filter_tcp_udp(parse_flow_file(art["flows"]).table), 60.0, 10.0)
        lines = out.read_text().splitlines()
        assert len(lines) == len(windows)
        for window, line in zip(windows, lines):
            P = propagation_matrix(build_graph(window))
            vectors = forward(model, P, extract_node_features(window))
            vectors = normalize_embedding(vectors, "per_dimension")
            expect = extra_trees.predict_proba(ens, vectors).tolist()
            assert [v["bot_probability"] for v in json.loads(line)["nodes"]] == expect

    def test_detect_no_timings_is_byte_stable(self, art, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        argv = [
            "detect", "--flows", str(art["flows"]), "--model", str(art["model"]),
            "--ensemble", str(art["ens"]), "--no-timings",
        ]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "timings" not in json.loads(a.read_text().splitlines()[0])

    def test_default_training_records_no_windowing_and_detect_slices_60_10(self, art, tmp_path):
        payload = json.loads(art["ens"].read_text())
        assert "window_len" not in payload and "stride" not in payload
        out = tmp_path / "verdicts.jsonl"
        assert main(["detect", "--flows", str(art["flows"]), "--model", str(art["model"]),
                     "--ensemble", str(art["ens"]), "--no-timings", "--out", str(out)]) == 0
        flows = parse_flow_file(art["flows"]).table
        reports = fusion_pipeline.detect(flows, load_model(art["model"]),
                                         extra_trees.load_ensemble(art["ens"]))
        assert ([w.window_start for w in reports]
                == [w.window_start for w in slice_windows(filter_tcp_udp(flows), 60.0, 10.0)])
        lines = list(json_lines(reports, "c2", include_timings=False))
        assert out.read_text() == "".join(line + "\n" for line in lines)

    def test_detect_slices_with_the_windowing_the_ensemble_records(self, art, tmp_path, capsys):
        ens_path = tmp_path / "trees_30_5.json"
        assert main(["train", "--flows", str(art["flows"]), "--model", str(art["model"]),
                     "--window-len", "30", "--stride", "5", "--n-trees", "10",
                     "--out", str(ens_path)]) == 0
        blob = ens_path.read_bytes()
        assert b'"stride":5.0' in blob and b'"window_len":30.0' in blob
        ens = extra_trees.load_ensemble(ens_path)
        assert (ens.window_len, ens.stride) == (30.0, 5.0)
        assert extra_trees.serialize_ensemble(ens) == blob
        out = tmp_path / "verdicts.jsonl"
        capsys.readouterr()
        assert main(["detect", "--flows", str(art["flows"]), "--model", str(art["model"]),
                     "--ensemble", str(ens_path), "--no-timings", "--out", str(out)]) == 0
        flows = parse_flow_file(art["flows"]).table
        windows = slice_windows(filter_tcp_udp(flows), 30.0, 5.0)
        assert len(windows) > len(slice_windows(filter_tcp_udp(flows), 60.0, 10.0))
        reports = fusion_pipeline.detect(flows, load_model(art["model"]), ens)
        assert [w.window_start for w in reports] == [w.window_start for w in windows]
        lines = list(json_lines(reports, "c2", include_timings=False))
        assert out.read_text() == "".join(line + "\n" for line in lines)
        assert f"across {len(windows)} windows" in capsys.readouterr().err
        # The library's training records the windowing it sliced with.
        blob = extra_trees.serialize_ensemble(
            train_detector(flows, load_model(art["model"]), 30.0, 5.0, n_trees=10))
        assert b'"stride":5.0' in blob and b'"window_len":30.0' in blob
        assert blob == ens_path.read_bytes()

    def test_train_and_detect_build_no_flow_record(self, art, tmp_path, monkeypatch):
        # The CLI parses into columns and slices the table; a FlowRecord per
        # row would be built only by a row the columns refuse, such as the
        # header, which fails before it gets that far.
        def refuse(self, *args, **kwargs):
            raise AssertionError("a FlowRecord was built")

        monkeypatch.setattr(FlowRecord, "__init__", refuse)
        ens, out = tmp_path / "trees.json", tmp_path / "verdicts.jsonl"
        assert main(["train", "--flows", str(art["flows"]), "--model", str(art["model"]),
                     "--n-trees", "10", "--out", str(ens)]) == 0
        assert ens.read_bytes() == art["ens"].read_bytes()
        assert main(["detect", "--flows", str(art["flows"]), "--model", str(art["model"]),
                     "--ensemble", str(ens), "--no-timings", "--out", str(out)]) == 0
        assert out.read_text().count("\n") > 1

    @pytest.mark.parametrize("option", ["--window-len", "--stride"])
    def test_detect_takes_no_windowing_option(self, art, tmp_path, capsys, option):
        out = tmp_path / "verdicts.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--flows", str(art["flows"]), "--model", str(art["model"]),
                  "--ensemble", str(art["ens"]), "--out", str(out), option, "30"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 30" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ts", ["-1e300", "-1e18", "1e300"])
    def test_detect_ignores_a_far_off_start_time(self, art, tmp_path, ts):
        flows = tmp_path / "flows.csv"
        flows.write_text(art["flows"].read_text()
                         + f"{ts},0.5,tcp,10.0.0.1,1,10.0.0.2,80,100,100,\n")
        reports = []
        for path in (art["flows"], flows):
            out = tmp_path / f"report{len(reports)}.jsonl"
            assert main(["detect", "--flows", str(path), "--model", str(art["model"]),
                         "--ensemble", str(art["ens"]), "--no-timings", "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestEval:
    def test_table_and_json_output(self, art, tmp_path, capsys):
        out = tmp_path / "eval.json"
        rc = main([
            "eval", "--flows", str(art["flows"]), "--model", str(art["model"]),
            "--k", "3", "--n-trees", "10", "--out", str(out),
        ])
        assert rc == 0
        text = capsys.readouterr().out
        assert text.startswith("metric")
        assert "recall" in text
        payload = json.loads(out.read_text())
        assert payload["k"] == 3
        assert len(payload["folds"]) == 3

    @pytest.mark.parametrize("k", ["2", "3", "5", "10", "loo"])
    def test_out_bytes_equal_the_in_process_path(self, art, tmp_path, k):
        flows = art["flows"]
        if k == "loo":
            # The first 79 flows make one window of 41 nodes, 6 of them bots.
            flows = tmp_path / "short.csv"
            flows.write_text("".join(art["flows"].read_text().splitlines(True)[:80]))
            k = "41"
        argv = ["eval", "--flows", str(flows), "--model", str(art["model"]),
                "--k", k, "--n-trees", "6", "--threshold", "0.3", "--seed", "2"]
        with pytest.MonkeyPatch.context() as mp:
            forks = counted_forks(mp)
            assert main([*argv, "--out", str(tmp_path / "forked.json")]) == 0
        with pytest.MonkeyPatch.context() as mp:
            in_process_only(mp)
            assert main([*argv, "--out", str(tmp_path / "in_process.json")]) == 0
        forked = (tmp_path / "forked.json").read_bytes()
        assert forked == (tmp_path / "in_process.json").read_bytes()
        assert len(json.loads(forked)["folds"]) == int(k)
        assert forks == [os.getpid()]
        assert_no_child_left()


class TestSweep:
    def test_two_depth_sweep(self, art, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        rc = main([
            "sweep", "--flows", str(art["flows"]), "--data", str(art["graphs"]),
            "--depths", "2,3", "--max-epochs", "3", "--patience", "1",
            "--k", "3", "--n-trees", "5", "--out", str(out),
        ])
        assert rc == 0
        table = capsys.readouterr().out
        assert table.split("\n")[0].split()[:2] == ["arch", "depth"]
        rows = json.loads(out.read_text())
        assert [r["depth"] for r in rows] == [2, 3]
        for row in rows:
            assert row["arch"] == "c2"
            assert len(row["folds"]) == 3
            assert set(row["mean"]) == {"accuracy", "precision", "recall", "fpr", "f1", "roc_auc"}

    def test_trace_without_windows_is_refused_before_pretraining(self, art, tmp_path, capsys,
                                                                  monkeypatch):
        def pretrain(*args, **kwargs):
            raise AssertionError("pretrained before the trace was sliced")

        monkeypatch.setattr("botfuse.pretrain.pretrain_gcn", pretrain)
        flows = tmp_path / "icmp.csv"
        flows.write_text(art["flows"].read_text().replace(",tcp,", ",icmp,")
                         .replace(",udp,", ",icmp,"))
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--flows", str(flows), "--data", str(art["graphs"]),
                     "--depths", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: no windows produced from the input flows\n"
        assert not out.exists()

    def test_no_depths_is_refused_before_any_input(self, art, tmp_path, capsys, monkeypatch):
        def read(*args, **kwargs):
            raise AssertionError("an input was read before --depths was checked")

        monkeypatch.setattr("botfuse.pretrain.load_graph_dataset", read)
        monkeypatch.setattr("botfuse.cli.parse_flow_file", read)
        out = tmp_path / "sweep.json"
        rc = main(["sweep", "--flows", str(art["flows"]), "--data", str(art["graphs"]),
                   "--depths", ",", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: no depths requested\n"
        assert not out.exists()

    def test_non_integer_depth_names_the_option(self, art, tmp_path, capsys, monkeypatch):
        def read(*args, **kwargs):
            raise AssertionError("an input was read before --depths was checked")

        monkeypatch.setattr("botfuse.pretrain.load_graph_dataset", read)
        monkeypatch.setattr("botfuse.cli.parse_flow_file", read)
        out = tmp_path / "sweep.json"
        rc = main(["sweep", "--flows", str(art["flows"]), "--data", str(art["graphs"]),
                   "--depths", "2,x", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --depths takes comma-separated integers, got '2,x'\n")
        assert not out.exists()


# What each subcommand parses from its required flags alone: every default
# the CLI reads from the library, written out. features and detect draw no
# random numbers, so they take no --seed.
_PARSED_DEFAULTS = {
    "synth": (["--out", "o"], {
        "seed": 0, "kind": "flows", "arch": "c2", "n_graphs": 6, "n_background": None,
        "n_bots": None, "duration": 120.0, "out": "o",
    }),
    "pretrain": (["--out", "o"], {
        "seed": 0, "arch": "c2", "depth": None, "data": "synth", "n_graphs": 6, "lr": 0.003,
        "max_epochs": 500, "patience": 10, "val_fraction": 0.2, "report": None, "out": "o",
    }),
    "features": (["--flows", "f"], {
        "flows": "f", "format": "canonical", "window_len": 60.0, "stride": 10.0, "out": None,
    }),
    "train": (["--flows", "f", "--model", "m", "--out", "o"], {
        "seed": 0, "flows": "f", "format": "canonical", "window_len": 60.0, "stride": 10.0,
        "model": "m", "norm_mode": "per_vector", "n_trees": 100, "out": "o",
    }),
    "detect": (["--flows", "f", "--model", "m", "--ensemble", "e"], {
        "flows": "f", "format": "canonical", "model": "m", "ensemble": "e", "arch": "c2",
        "threshold": 0.5, "no_timings": False, "out": None,
    }),
    "eval": (["--flows", "f", "--model", "m"], {
        "seed": 0, "flows": "f", "format": "canonical", "window_len": 60.0, "stride": 10.0,
        "model": "m", "k": 10, "n_trees": 100, "norm_mode": "per_vector",
        "threshold": 0.5, "out": None,
    }),
    "sweep": (["--flows", "f"], {
        "seed": 0, "flows": "f", "format": "canonical", "window_len": 60.0, "stride": 10.0,
        "arch": "c2", "depths": "10,12,14,16", "data": "synth", "n_graphs": 6,
        "max_epochs": 500, "patience": 10, "k": 10, "n_trees": 100,
        "norm_mode": "per_vector", "out": None,
    }),
}


@pytest.mark.parametrize("command", list(_PARSED_DEFAULTS))
def test_parsed_defaults(command):
    required, expect = _PARSED_DEFAULTS[command]
    parsed = vars(build_parser()[0].parse_args([command, *required]))
    assert parsed.pop("func").__name__ == f"cmd_{command}"
    assert parsed == {"command": command, "config": None, **expect}


class TestConfigFile:
    def test_config_overrides_default(self, art, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-trees": 7}))
        out = tmp_path / "ens7.json"
        rc = main([
            "train", "--flows", str(art["flows"]), "--model", str(art["model"]),
            "--out", str(out), "--config", str(cfg),
        ])
        assert rc == 0
        assert extra_trees.load_ensemble(out).n_trees == 7

    def test_explicit_flag_beats_config(self, art, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-trees": 7}))
        out = tmp_path / "ens9.json"
        rc = main([
            "train", "--flows", str(art["flows"]), "--model", str(art["model"]),
            "--n-trees", "9", "--out", str(out), "--config", str(cfg),
        ])
        assert rc == 0
        assert extra_trees.load_ensemble(out).n_trees == 9

    def test_explicit_flag_equal_to_default_beats_config(self, art, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_trees": 7}))
        out = tmp_path / "ens100.json"
        rc = main([
            "train", "--flows", str(art["flows"]), "--model", str(art["model"]),
            "--n-trees", "100", "--out", str(out), "--config", str(cfg),
        ])
        assert rc == 0
        assert extra_trees.load_ensemble(out).n_trees == 100

    def test_config_value_of_wrong_type_fails(self, art, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_trees": "abc"}))
        with pytest.raises(SystemExit) as exc:
            main([
                "train", "--flows", str(art["flows"]), "--model", str(art["model"]),
                "--out", str(tmp_path / "x.json"), "--config", str(cfg),
            ])
        assert exc.value.code != 0
        assert "error: argument --n-trees: invalid int value: 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value,message", [
        ("detect", "out", 5, "5 is not a string"),
        ("pretrain", "data", 5, "5 is not a string"),
        ("sweep", "depths", 5, "5 is not a string"),
        ("detect", "no_timings", "false", "'false' is not true or false"),
    ])
    def test_untyped_option_of_wrong_type_fails(self, art, tmp_path, capsys, command, key,
                                                value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv = {
            "detect": ["--flows", str(art["flows"]), "--model", str(art["model"]),
                       "--ensemble", str(art["ens"])],
            "pretrain": ["--out", str(tmp_path / "m.bin")],
            "sweep": ["--flows", str(art["flows"])],
        }[command]
        assert main([command, *argv, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: config key {key!r}: {message}\n"
        assert captured.out == ""

    def test_flag_takes_a_json_boolean(self, art, tmp_path):
        argv = ["detect", "--flows", str(art["flows"]), "--model", str(art["model"]),
                "--ensemble", str(art["ens"])]
        for value in (True, False):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"no-timings": value}))
            out = tmp_path / f"{value}.jsonl"
            assert main(argv + ["--out", str(out), "--config", str(cfg)]) == 0
            assert ("timings" in json.loads(out.read_text().splitlines()[0])) is not value

    def test_unknown_key_fails(self, art, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tree-count": 7}))
        rc = main([
            "train", "--flows", str(art["flows"]), "--model", str(art["model"]),
            "--out", str(tmp_path / "x.json"), "--config", str(cfg),
        ])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["window_len", "stride"])
    def test_detect_config_may_not_set_the_windowing(self, art, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 30}))
        out = tmp_path / "verdicts.jsonl"
        assert main(["detect", "--flows", str(art["flows"]), "--model", str(art["model"]),
                     "--ensemble", str(art["ens"]), "--out", str(out),
                     "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
        assert not out.exists()

    def test_config_value_outside_choices_fails(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "graph"}))
        rc = main(["synth", "--out", str(tmp_path / "out"), "--config", str(cfg)])
        assert rc == 1
        assert "'graph' is not one of ['graphs', 'flows']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_configs_fail(self, art, tmp_path, capsys):
        missing = main([
            "features", "--flows", str(art["flows"]),
            "--config", str(tmp_path / "nope.json"),
        ])
        assert missing == 1
        assert "config file not found" in capsys.readouterr().err
        bad = tmp_path / "list.json"
        bad.write_text("[1,2]")
        rc = main(["features", "--flows", str(art["flows"]), "--config", str(bad)])
        assert rc == 1
        assert "single object" in capsys.readouterr().err

    @pytest.mark.parametrize("name, content, kind, detail", [
        ("cfg.json", b'{"seed": 1,}', "JSON", "Expecting property name enclosed in double quotes"),
        ("cfg.toml", b"seed = \n", "TOML", "Invalid value"),
        ("cfg.json", b"\xff\xfe{}", "JSON", "'utf-8' codec can't decode byte 0xff"),
    ])
    def test_config_that_does_not_decode_names_the_file(self, art, tmp_path, capsys, name,
                                                         content, kind, detail):
        if kind == "TOML" and sys.version_info < (3, 11):
            pytest.skip("TOML configs need Python 3.11+")
        cfg = tmp_path / name
        cfg.write_bytes(content)
        out = tmp_path / "trees.json"
        rc = main(["train", "--flows", str(art["flows"]), "--model", str(art["model"]),
                   "--config", str(cfg), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {cfg} is not valid {kind}: {detail}")
        assert not out.exists()

    def test_toml_config_depends_on_interpreter(self, art, tmp_path, capsys):
        cfg = tmp_path / "cfg.toml"
        cfg.write_text('stride = 20.0\n')
        rc = main(["features", "--flows", str(art["flows"]), "--config", str(cfg)])
        if sys.version_info >= (3, 11):
            assert rc == 0
        else:
            assert rc == 1
            assert "TOML config requires" in capsys.readouterr().err


class TestErrors:
    def test_missing_flow_file(self, capsys):
        rc = main(["features", "--flows", "/nonexistent/flows.csv"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @staticmethod
    def _flow_command(art, command, out):
        argv = [command, "--flows", str(art["flows"]), "--out", str(out)]
        if command != "features":
            argv += ["--model", str(art["model"])]
        if command == "detect":
            argv += ["--ensemble", str(art["ens"])]
        return argv

    @staticmethod
    def _forbid_parsing(monkeypatch):
        def parse(*args, **kwargs):
            raise AssertionError("the trace was parsed before --out was checked")

        monkeypatch.setattr("botfuse.cli.parse_flow_file", parse)

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("command", ["features", "detect", "train", "eval"])
    def test_unknown_format_is_refused_before_any_input(self, art, tmp_path, capsys,
                                                        monkeypatch, command, via):
        self._forbid_parsing(monkeypatch)

        def read(*args, **kwargs):
            raise AssertionError("an input was read before --format was checked")

        monkeypatch.setattr("botfuse.cli.load_model", read)
        monkeypatch.setattr("botfuse.extra_trees.load_ensemble", read)
        out = tmp_path / "out.json"
        argv = self._flow_command(art, command, out)
        if via == "flag":
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--format", "csv"])
            assert exc.value.code == 2
            assert "argument --format: invalid choice: 'csv'" in capsys.readouterr().err
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"format": "csv"}))
            assert main([*argv, "--config", str(cfg)]) == 1
            assert capsys.readouterr().err == (
                "error: config key 'format': 'csv' is not one of ['canonical', 'binetflow']\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["features", "detect", "train", "eval"])
    def test_output_path_that_is_a_directory(self, art, tmp_path, capsys, monkeypatch,
                                             command):
        self._forbid_parsing(monkeypatch)
        assert main(self._flow_command(art, command, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Is a directory" in err

    @pytest.mark.parametrize("command", ["features", "detect", "train", "eval"])
    def test_output_path_whose_directory_is_missing(self, art, tmp_path, capsys,
                                                    monkeypatch, command):
        self._forbid_parsing(monkeypatch)
        out = tmp_path / "missing" / "out.json"
        assert main(self._flow_command(art, command, out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "output directory does not exist" in err
        assert not out.parent.exists()

    def test_pretrain_report_whose_directory_is_missing(self, art, tmp_path, capsys,
                                                       monkeypatch):
        def pretrain(*args, **kwargs):
            raise AssertionError("pretrained before --report was checked")

        monkeypatch.setattr("botfuse.pretrain.pretrain_gcn", pretrain)
        model = tmp_path / "model.bin"
        report = tmp_path / "missing" / "r.jsonl"
        rc = main(["pretrain", "--data", str(art["graphs"]), "--depth", "2",
                   "--out", str(model), "--report", str(report)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "output directory does not exist" in err
        assert not model.exists() and not report.parent.exists()

    @pytest.mark.parametrize("report", ["m.bin", "./sub/../m.bin"])
    def test_pretrain_report_that_names_the_model_file(self, art, tmp_path, capsys,
                                                       monkeypatch, report):
        def pretrain(*args, **kwargs):
            raise AssertionError("pretrained before the output paths were checked")

        monkeypatch.setattr("botfuse.pretrain.pretrain_gcn", pretrain)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        rc = main(["pretrain", "--data", str(art["graphs"]), "--depth", "2",
                   "--out", "m.bin", "--report", report])
        assert rc == 1
        assert capsys.readouterr().err == "error: --out and --report name the same file\n"
        assert not (tmp_path / "m.bin").exists()

    @pytest.mark.parametrize("command, output, source", [
        ("synth", "--out", "--config"),
        ("pretrain", "--out", "--data"),
        ("pretrain", "--report", "--config"),
        ("features", "--out", "--flows"),
        ("train", "--out", "--model"),
        ("detect", "--out", "--ensemble"),
        ("eval", "--out", "--flows"),
        ("sweep", "--out", "--config"),
    ])
    def test_output_that_names_an_input_file(self, art, tmp_path, capsys, command, output,
                                             source):
        inputs = {
            "--flows": art["flows"],
            "--model": art["model"],
            "--ensemble": art["ens"],
            "--data": art["graphs"] / "graph_c2_000.json",
        }
        files = {option: tmp_path / path.name for option, path in inputs.items()}
        for option, path in inputs.items():
            files[option].write_bytes(path.read_bytes())
        files["--config"] = tmp_path / "config.json"
        files["--config"].write_text("{}")
        before = {option: path.read_bytes() for option, path in files.items()}
        reads = {
            "synth": [],
            "pretrain": ["--data"],
            "features": ["--flows"],
            "train": ["--flows", "--model"],
            "detect": ["--flows", "--model", "--ensemble"],
            "eval": ["--flows", "--model"],
            "sweep": ["--flows", "--data"],
        }[command]
        argv = [command, "--config", str(files["--config"])]
        for option in reads:
            argv += [option, str(files[option])]
        if "--data" in reads and source != "--data":
            # A lone graph is too few to pretrain on; a directory of them is not.
            shutil.copytree(art["graphs"], tmp_path / "graphs")
            argv[argv.index("--data") + 1] = str(tmp_path / "graphs")
        argv += {
            "pretrain": ["--max-epochs", "1", "--depth", "2"],
            "sweep": ["--max-epochs", "1", "--depths", "2", "--k", "2", "--n-trees", "2"],
        }.get(command, [])
        if output == "--report":
            argv += ["--out", str(tmp_path / "model.out")]
        (tmp_path / "sub").mkdir()
        target = str(tmp_path / "sub" / ".." / files[source].name)
        assert main([*argv, output, target]) == 1
        assert capsys.readouterr().err == (
            f"error: {output} names the {source} input file: {target}\n")
        assert {option: path.read_bytes() for option, path in files.items()} == before
        assert not (tmp_path / "model.out").exists()

    def test_detect_refuses_cyclic_ensemble(self, art, tmp_path, capsys):
        payload = json.loads(art["ens"].read_text())
        root = payload["trees"][0]
        assert root["feature"][0] != -1
        root["left"][0] = 0  # the root is its own left child
        cyclic = tmp_path / "cyclic.json"
        cyclic.write_text(json.dumps(payload))
        rc = main(["detect", "--flows", str(art["flows"]), "--model", str(art["model"]),
                   "--ensemble", str(cyclic), "--out", str(tmp_path / "v.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: tree 0 node 0: children")

    @pytest.mark.parametrize("key, value, message", [
        ("n_features", None, "error: ensemble field 'n_features' must be an integer"),
        ("norm_mode", "bogus", "error: ensemble field 'norm_mode' must be one of"),
    ])
    def test_detect_refuses_bad_ensemble_header(self, art, tmp_path, capsys, key, value,
                                                message):
        payload = json.loads(art["ens"].read_text())
        payload[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        rc = main(["detect", "--flows", str(art["flows"]), "--model", str(art["model"]),
                   "--ensemble", str(bad), "--out", str(tmp_path / "v.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("command", ["detect", "eval"])
    @pytest.mark.parametrize("threshold", ["1.5", "-0.1", "nan"])
    def test_threshold_outside_unit_interval(self, art, tmp_path, capsys, monkeypatch, command,
                                             threshold):
        self._forbid_parsing(monkeypatch)
        out = tmp_path / "out.json"
        rc = main(self._flow_command(art, command, out) + ["--threshold", threshold])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: threshold must be in [0, 1], got {float(threshold)}")
        assert not out.exists()

    @pytest.mark.parametrize("command, option, value, message", [
        ("train", "--n-trees", "0", "n_trees must be >= 1, got 0"),
        ("eval", "--n-trees", "-2", "n_trees must be >= 1, got -2"),
        ("sweep", "--n-trees", "0", "n_trees must be >= 1, got 0"),
        ("eval", "--k", "1", "k must be >= 2, got 1"),
        ("sweep", "--k", "0", "k must be >= 2, got 0"),
    ])
    def test_forest_and_fold_counts_are_checked_before_any_work(
            self, art, tmp_path, capsys, monkeypatch, command, option, value, message):
        self._forbid_parsing(monkeypatch)

        def graphs(*args, **kwargs):
            raise AssertionError(f"graphs were made before {option} was checked")

        monkeypatch.setattr("botfuse.pretrain.default_pretrain_dataset", graphs)
        out = tmp_path / "out.json"
        argv = [command, "--flows", str(art["flows"]), "--out", str(out), option, value]
        if command != "sweep":
            argv += ["--model", str(art["model"])]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("argv", [
        ["synth"],
        ["pretrain", "--data", "missing_dir"],
        ["train", "--flows", "missing.csv", "--model", "missing.bin"],
        ["eval", "--flows", "missing.csv", "--model", "missing.bin"],
        ["sweep", "--flows", "missing.csv", "--data", "missing_dir"],
    ])
    def test_negative_seed_is_refused_before_any_input(self, tmp_path, capsys, monkeypatch,
                                                       argv, via):
        monkeypatch.chdir(tmp_path)
        if via == "flag":
            argv = [*argv, "--seed", "-1"]
        else:
            (tmp_path / "cfg.json").write_text('{"seed": -1}')
            argv = [*argv, "--config", "cfg.json"]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_n_trees_is_checked_before_the_flow_file(self, art, tmp_path, capsys):
        out = tmp_path / "trees.json"
        rc = main(["train", "--flows", str(tmp_path / "missing.csv"), "--model",
                   str(art["model"]), "--n-trees", "0", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: n_trees must be >= 1, got 0\n"
        assert not out.exists()

    def test_train_whose_tree_worker_fails(self, art, tmp_path, capsys, monkeypatch):
        parent, build = os.getpid(), extra_trees._build_tree

        def build_in_parent_only(*args):
            if os.getpid() != parent:
                raise MemoryError("the worker ran out of memory")
            return build(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(extra_trees, "_build_tree", build_in_parent_only)
        out = tmp_path / "trees.json"
        rc = main(["train", "--flows", str(art["flows"]), "--model", str(art["model"]),
                   "--n-trees", "4", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: tree worker exited with code 1 after sending 0 of its 2 trees: "
            "MemoryError: the worker ran out of memory\n")
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_detect_whose_window_worker_fails(self, art, tmp_path, capsys, monkeypatch):
        parent, rows = os.getpid(), fusion_pipeline.window_rows

        def rows_in_parent_only(*args):
            if os.getpid() != parent:
                raise MemoryError("the worker ran out of memory")
            return rows(*args)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(fusion_pipeline, "window_rows", rows_in_parent_only)
        out = tmp_path / "verdicts.jsonl"
        rc = main(["detect", "--flows", str(art["flows"]), "--model", str(art["model"]),
                   "--ensemble", str(art["ens"]), "--out", str(out)])
        assert rc == 1
        assert re.fullmatch(
            r"error: window worker exited with code 1 after sending 0 of its \d+ windows: "
            r"MemoryError: the worker ran out of memory\n", capsys.readouterr().err)
        assert not out.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_eval_whose_fold_worker_fails(self, art, tmp_path, capsys, monkeypatch):
        parent, fit = os.getpid(), extra_trees.fit

        def fit_in_parent_only(*args, **kwargs):
            if os.getpid() != parent:
                raise MemoryError("the worker ran out of memory")
            return fit(*args, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(extra_trees, "fit", fit_in_parent_only)
        out = tmp_path / "eval.json"
        rc = main(["eval", "--flows", str(art["flows"]), "--model", str(art["model"]),
                   "--k", "4", "--n-trees", "4", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: fold worker exited with code 1 after sending 0 of its 2 folds: "
            "MemoryError: the worker ran out of memory\n")
        assert not out.exists()
        assert_no_child_left()

    @pytest.mark.parametrize("command", ["features", "train", "eval", "sweep"])
    @pytest.mark.parametrize("options, message", [
        (["--stride", "-1"], "stride must be finite and > 0, got -1.0"),
        (["--window-len", "0"], "window_len must be finite and > 0, got 0.0"),
        (["--window-len", "nan"], "window_len must be finite and > 0, got nan"),
        (["--window-len", "5", "--stride", "6"], "stride 6.0 exceeds window length 5.0"),
        (["--window-len", "1e300", "--stride", "1e-300"],
         "window_len 1e+300 / stride 1e-300 is not finite"),
    ])
    def test_windowing_is_checked_before_any_input(self, art, tmp_path, capsys,
                                                   monkeypatch, command, options, message):
        self._forbid_parsing(monkeypatch)

        def read(*args, **kwargs):
            raise AssertionError("an input was read before the windowing was checked")

        monkeypatch.setattr("botfuse.cli.load_model", read)
        monkeypatch.setattr("botfuse.pretrain.default_pretrain_dataset", read)
        out = tmp_path / "out.json"
        argv = self._flow_command(art, command, out) if command != "sweep" else [
            "sweep", "--flows", str(art["flows"]), "--out", str(out)]
        assert main([*argv, *options]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_windows_too_fine_for_the_trace_are_refused(self, art, capsys):
        rc = main(["features", "--flows", str(art["flows"]),
                   "--window-len", "1e-300", "--stride", "1e-300"])
        assert rc == 1
        assert re.fullmatch(r"error: window_len 1e-300 and stride 1e-300 are too fine for flow "
                            r"times \S+ to \S+ s: a stride slot number reaches 2\*\*62\n",
                            capsys.readouterr().err)

    def test_windowing_is_checked_before_the_flow_file(self, tmp_path, capsys):
        rc = main(["features", "--flows", str(tmp_path / "missing.csv"), "--stride", "-1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: stride must be finite and > 0, got -1.0\n"

    @pytest.mark.parametrize("argv, depth", [
        (["pretrain", "--depth", "0", "--data", "missing_dir"], 0),
        (["sweep", "--depths", "0", "--flows", "missing.csv", "--data", "g"], 0),
        (["sweep", "--depths", "3,-1", "--flows", "missing.csv", "--data", "synth"], -1),
    ])
    def test_depth_is_checked_before_any_input(self, tmp_path, capsys, monkeypatch,
                                               argv, depth):
        self._forbid_parsing(monkeypatch)

        def read(*args, **kwargs):
            raise AssertionError("an input was read before the depth was checked")

        monkeypatch.setattr("botfuse.pretrain.load_graph_dataset", read)
        monkeypatch.setattr("botfuse.pretrain.default_pretrain_dataset", read)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: depth must be >= 1, got {depth}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["pretrain", "--depth", "65536"],
        ["sweep", "--depths", "2,65536", "--flows", "flows.csv"],
    ])
    def test_depth_beyond_the_model_format_is_refused_before_pretraining(
            self, tmp_path, capsys, monkeypatch, argv):
        # The model header stores depth in 16 bits.
        def pretrain(*args, **kwargs):
            raise AssertionError("pretrained before the depth was checked")

        monkeypatch.setattr("botfuse.pretrain.pretrain_gcn", pretrain)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: depth must be <= 65535, the model format's limit, got 65536\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, output", [
        ("pretrain", "--out"), ("pretrain", "--report"), ("sweep", "--out"),
    ])
    def test_output_that_names_a_graph_in_the_data_directory(
            self, art, tmp_path, capsys, monkeypatch, command, output):
        def read(*args, **kwargs):
            raise AssertionError("an input was read before the outputs were checked")

        monkeypatch.setattr("botfuse.pretrain.load_graph_dataset", read)
        monkeypatch.setattr("botfuse.cli.parse_flow_file", read)
        data = tmp_path / "graphs"
        shutil.copytree(art["graphs"], data)
        target = data / "graph_c2_000.json"
        before = target.read_bytes()
        argv = [command, "--data", str(data), "--depth" if command == "pretrain" else "--depths",
                "2"]
        if command == "sweep":
            argv += ["--flows", str(art["flows"])]
        if output == "--report":
            argv += ["--out", str(tmp_path / "model.bin")]
        assert main([*argv, output, str(target)]) == 1
        assert capsys.readouterr().err == (
            f"error: {output} names the --data input file: {target}\n")
        assert target.read_bytes() == before
        assert not (tmp_path / "model.bin").exists()

    @pytest.mark.parametrize("command, output", [
        ("pretrain", "--out"), ("pretrain", "--report"), ("sweep", "--out"),
    ])
    def test_output_inside_the_data_directory(self, art, tmp_path, capsys, monkeypatch,
                                              command, output):
        # A new *.json there would be read as a graph by the next run.
        def read(*args, **kwargs):
            raise AssertionError("an input was read before the outputs were checked")

        monkeypatch.setattr("botfuse.pretrain.load_graph_dataset", read)
        monkeypatch.setattr("botfuse.cli.parse_flow_file", read)
        data = tmp_path / "graphs"
        shutil.copytree(art["graphs"], data)
        before = {path.name: path.read_bytes() for path in data.iterdir()}
        target = data / "epochs.json"
        argv = [command, "--data", str(data), "--depth" if command == "pretrain" else "--depths",
                "2"]
        if command == "sweep":
            argv += ["--flows", str(art["flows"])]
        if output == "--report":
            argv += ["--out", str(tmp_path / "model.bin")]
        assert main([*argv, output, str(target)]) == 1
        assert capsys.readouterr().err == (
            f"error: {output} lies inside the --data directory {data}: {target}\n")
        assert {path.name: path.read_bytes() for path in data.iterdir()} == before
        assert not (tmp_path / "model.bin").exists()

    @pytest.mark.parametrize("command", ["train", "eval", "detect"])
    def test_model_of_the_wrong_input_width_is_refused(self, art, tmp_path, capsys, command):
        narrow = init_gcn(2, input_dim=3, seed=0)
        narrow.frozen = True
        model = tmp_path / "narrow.bin"
        save_model(narrow, model)
        out = tmp_path / "out.json"
        # A missing trace pins the order: the model is refused before --flows is read.
        argv = [command, "--flows", str(tmp_path / "missing.csv"), "--model", str(model),
                "--out", str(out)]
        if command == "detect":
            argv += ["--ensemble", str(art["ens"])]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: model expects 3-dim input, pipeline produces 5\n")
        assert not out.exists()

    def test_model_and_ensemble_of_different_widths_are_refused_before_the_trace(
            self, art, tmp_path, capsys):
        narrow = init_gcn(2, hidden_dim=16, seed=0)
        narrow.frozen = True
        model = tmp_path / "hidden16.bin"
        save_model(narrow, model)
        out = tmp_path / "v.jsonl"
        rc = main(["detect", "--flows", str(tmp_path / "missing.csv"), "--model", str(model),
                   "--ensemble", str(art["ens"]), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: ensemble expects 32 features, model emits 16\n"
        assert not out.exists()

    @pytest.mark.parametrize("fields, message", [
        ({"window_len": 0}, "window_len must be finite and > 0, got 0.0"),
        ({"window_len": float("nan")}, "window_len must be finite and > 0, got nan"),
        ({"stride": float("inf")}, "stride must be finite and > 0, got inf"),
        ({"window_len": "30"}, "ensemble field 'window_len' must be a number, got '30'"),
        ({"stride": True}, "ensemble field 'stride' must be a number, got True"),
        ({"window_len": 30.0, "stride": 50.0}, "stride 50.0 exceeds window length 30.0"),
    ])
    def test_recorded_windowing_is_refused_before_the_trace_is_read(
            self, art, tmp_path, capsys, monkeypatch, fields, message):
        self._forbid_parsing(monkeypatch)
        payload = json.loads(art["ens"].read_text())
        payload.update(fields)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        out = tmp_path / "v.jsonl"
        rc = main(["detect", "--flows", str(tmp_path / "missing.csv"), "--model",
                   str(art["model"]), "--ensemble", str(bad), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_p2p_flows_need_more_bots_than_the_mesh_degree(self, tmp_path, capsys):
        out = tmp_path / "flows.csv"
        rc = main(["synth", "--kind", "flows", "--arch", "p2p", "--n-bots", "4",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_p2p_graphs_need_more_bots_than_the_mesh_degree(self, tmp_path, capsys):
        out = tmp_path / "graphs"
        rc = main(["synth", "--kind", "graphs", "--arch", "p2p", "--n-bots", "4",
                   "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: a 4-regular mesh needs more than 4 bots, got 4")
        assert not out.exists()

    @pytest.mark.parametrize("lr", ["nan", "inf", "0", "-1"])
    def test_pretrain_refuses_lr_before_any_graph(self, tmp_path, capsys, monkeypatch, lr):
        def graphs(*args, **kwargs):
            raise AssertionError("graphs were made before --lr was checked")

        monkeypatch.setattr("botfuse.pretrain.default_pretrain_dataset", graphs)
        out = tmp_path / "model.bin"
        assert main(["pretrain", "--lr", lr, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: lr must be finite and > 0")
        assert not out.exists()

    def test_detect_refuses_a_model_with_residual_code_1(self, art, tmp_path, capsys):
        import struct
        import zlib

        # Header byte 15 is the residual code; 0 is the one wiring.
        data = art["model"].read_bytes()
        assert data[15] == 0
        body = data[:15] + b"\x01" + data[16:-4]
        model = tmp_path / "x_plus_relu.bin"
        model.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        rc = main(["detect", "--flows", str(art["flows"]), "--model", str(model),
                   "--ensemble", str(art["ens"]), "--out", str(tmp_path / "v.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: unsupported residual code 1")
        assert not (tmp_path / "v.jsonl").exists()

    def test_invalid_window_params(self, art, capsys):
        for flag, value in [("--window-len", "0"), ("--window-len", "inf"),
                            ("--window-len", "nan"), ("--stride", "nan")]:
            rc = main(["features", "--flows", str(art["flows"]), flag, value])
            assert rc == 1
            name = flag[2:].replace("-", "_")
            assert capsys.readouterr().err.startswith(f"error: {name} must be finite and > 0")
