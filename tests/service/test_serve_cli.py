"""The ``repro serve`` JSON-lines driver, end to end through the CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro
from repro.cli import main as cli_main
from repro.errors import ConfigurationError


def serve(tmp_path, capsys, lines, extra_args=()):
    """Run ``repro serve --input <file>`` and parse the response lines."""
    request_file = tmp_path / "requests.jsonl"
    request_file.write_text(
        "\n".join(json.dumps(line) if isinstance(line, dict) else line
                  for line in lines)
        + "\n"
    )
    code = cli_main(["serve", "--input", str(request_file), *extra_args])
    raw = capsys.readouterr().out
    responses = [json.loads(line) for line in raw.splitlines() if line]
    stats = [r for r in responses if r.get("event") == "stats"]
    assert len(stats) == 1, "exactly one trailing stats record"
    return code, [r for r in responses if r.get("event") != "stats"], stats[0]


class TestServeCli:
    def test_inline_request_echoes_sorted_data(self, tmp_path, capsys):
        code, responses, stats = serve(
            tmp_path,
            capsys,
            [{"id": 1, "keys": [3, 1, 2], "dtype": "uint32"}],
        )
        assert code == 0
        (response,) = responses
        assert response["ok"] and response["keys"] == [1, 2, 3]
        assert stats["completed"] == 1

    def test_inline_pairs_echo_values(self, tmp_path, capsys):
        code, responses, _ = serve(
            tmp_path,
            capsys,
            [{"id": 1, "keys": [5, 5, 1], "values": [0, 1, 2],
              "dtype": "uint32"}],
        )
        assert code == 0
        (response,) = responses
        assert response["keys"] == [1, 5, 5]
        assert response["values"] == [2, 0, 1]  # stable on equal keys

    def test_generated_request_reports_checksum(self, tmp_path, capsys):
        code, responses, _ = serve(
            tmp_path,
            capsys,
            [{"id": 7, "n": 5000, "dtype": "uint32",
              "distribution": "zipf", "seed": 3}],
        )
        assert code == 0
        (response,) = responses
        assert response["ok"] and response["n"] == 5000
        assert "keys" not in response  # generated runs don't echo data
        assert len(response["checksum"]) == 16
        planned = repro.plan_for(np.zeros(5000, dtype=np.uint32))
        assert response["strategy"] == planned.strategy

    def test_burst_of_small_requests_batches(self, tmp_path, capsys):
        lines = [
            {"id": i, "n": 256, "dtype": "uint32", "seed": i}
            for i in range(6)
        ]
        # The driver submits lines as they parse; a batch window lets
        # the whole burst land in one scheduler drain cycle.
        code, responses, stats = serve(
            tmp_path, capsys, lines, extra_args=("--batch-window", "50")
        )
        assert code == 0
        assert len(responses) == 6
        assert all(r["ok"] for r in responses)
        assert stats["completed"] == 6
        assert stats["batches"] >= 1
        _, _, unbatched = serve(
            tmp_path, capsys, lines, extra_args=("--no-batching",)
        )
        assert unbatched["batches"] == 0

    def test_file_request_round_trips(self, tmp_path, capsys, rng):
        from repro.external import FileLayout, read_records, write_records

        keys = rng.integers(0, 2**32, 20_000).astype(np.uint32)
        layout = FileLayout(np.dtype(np.uint32), None)
        src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
        write_records(src, layout.to_records(keys, None))
        code, responses, _ = serve(
            tmp_path,
            capsys,
            [{"id": 1, "input": str(src), "output": str(dst),
              "dtype": "uint32", "memory_budget": "32K"}],
        )
        assert code == 0
        (response,) = responses
        assert response["kind"] == "file" and response["runs"] > 1
        assert bytes(read_records(dst, layout)) == bytes(np.sort(keys))

    def test_malformed_lines_fail_that_line_only(self, tmp_path, capsys):
        code, responses, stats = serve(
            tmp_path,
            capsys,
            [
                "this is not json",
                {"id": 2, "keys": [2, 1], "dtype": "uint32"},
                {"id": 3, "input": "no-output.bin"},
            ],
        )
        assert code == 1  # failures happened...
        by_id = {r.get("id"): r for r in responses}
        assert by_id[2]["ok"] and by_id[2]["keys"] == [1, 2]  # ...but good
        assert not by_id[3]["ok"] and "output" in by_id[3]["error"]
        bad = [r for r in responses if r.get("line") == 1]
        assert bad and "bad JSON" in bad[0]["error"]

    def test_float_nan_request_is_ok_and_strict_json(self, tmp_path, capsys):
        code, responses, _ = serve(
            tmp_path,
            capsys,
            [{"id": 1, "keys": [1.5, "NaN", 0.5], "dtype": "float64"}],
        )
        # json.loads in serve() already proves every line is parseable;
        # the NaN is echoed as a string and the sort is not a failure.
        assert code == 0
        (response,) = responses
        assert response["ok"]
        assert response["keys"] == [0.5, 1.5, "NaN"]

    def test_pairs_file_defaults_value_dtype_to_key_dtype(
        self, tmp_path, capsys, rng
    ):
        from repro.external import FileLayout, read_records, write_records

        keys = rng.integers(0, 2**32, 5000).astype(np.uint32)
        values = np.arange(5000, dtype=np.uint32)
        layout = FileLayout(np.dtype(np.uint32), np.dtype(np.uint32))
        src, dst = tmp_path / "pairs.bin", tmp_path / "sorted.bin"
        write_records(src, layout.to_records(keys, values))
        code, responses, _ = serve(
            tmp_path,
            capsys,
            [{"id": 1, "input": str(src), "output": str(dst),
              "dtype": "uint32", "pairs": True}],
        )
        assert code == 0 and responses[0]["n"] == 5000
        got_keys, got_values = layout.to_columns(read_records(dst, layout))
        expect = repro.sort_pairs(keys, values)
        assert bytes(got_keys) == bytes(expect.keys)
        assert bytes(got_values) == bytes(expect.values)

    def test_unexpected_exception_still_yields_a_response(
        self, tmp_path, capsys
    ):
        # OverflowError is outside the ReproError family; the line must
        # still get its error response and fail the exit code.
        code, responses, stats = serve(
            tmp_path,
            capsys,
            [
                {"id": 1, "keys": [99999999999999999999], "dtype": "uint32"},
                {"id": 2, "keys": [2, 1], "dtype": "uint32"},
            ],
        )
        assert code == 1
        by_id = {r.get("id"): r for r in responses}
        assert not by_id[1]["ok"] and by_id[1]["error"]
        assert by_id[2]["ok"] and by_id[2]["keys"] == [1, 2]
        assert stats["completed"] == 1

    def test_checksum_matches_direct_sort(self, tmp_path, capsys):
        import hashlib

        from repro.workloads import typed_keys

        record = {"id": 1, "n": 2000, "dtype": "uint64", "seed": 9}
        code, responses, _ = serve(tmp_path, capsys, [record])
        assert code == 0
        keys = typed_keys(
            2000, np.dtype(np.uint64), "uniform", np.random.default_rng(9)
        )
        expect = hashlib.sha256(
            repro.sort(keys).keys.tobytes()
        ).hexdigest()[:16]
        assert responses[0]["checksum"] == expect


class TestRequestKwargs:
    def test_unknown_shape_rejected(self):
        from repro.service.driver import request_kwargs

        with pytest.raises(ValueError, match="request needs"):
            request_kwargs({"id": 1})

    def test_unknown_keys_rejected(self):
        from repro.service.driver import request_kwargs

        record = {
            "id": 1, "keys": [3, 1, 2], "memory_budegt": "1M", "shards": 2,
        }
        with pytest.raises(
            ConfigurationError, match=r"key\(s\): memory_budegt, shards;"
        ):
            request_kwargs(record)

    def test_unknown_keys_fail_that_line_only(self, tmp_path, capsys):
        code, responses, _ = serve(
            tmp_path,
            capsys,
            [
                {"id": 1, "keys": [3, 1, 2], "memory_budegt": "1M"},
                {"id": 2, "keys": [3, 1, 2], "workerz": 2},
                {"id": 3, "keys": [3, 1, 2]},
            ],
        )
        assert code == 1
        by_id = {r["id"]: r for r in responses}
        for rid, key in ((1, "memory_budegt"), (2, "workerz")):
            assert not by_id[rid]["ok"]
            assert by_id[rid]["error_type"] == "ConfigurationError"
            assert key in by_id[rid]["error"]
        assert by_id[3]["ok"] and by_id[3]["keys"] == [1, 2, 3]

    def test_memory_budget_suffix_parsed(self):
        from repro.service.driver import request_kwargs

        kwargs = request_kwargs(
            {"keys": [1, 2], "memory_budget": "1M"}
        )
        assert kwargs["memory_budget"] == 1 << 20


#: One record of each request shape, together carrying every key the
#: driver reads.
FULL_RECORDS = {
    "inline": {
        "id": 1, "keys": [3, 1, 2], "values": [0, 1, 2], "dtype": "int32",
        "value_dtype": "uint64", "memory_budget": "1M", "deadline": 5,
    },
    "generated": {
        "id": 2, "n": 64, "seed": 3, "distribution": "zipf", "pairs": True,
        "dtype": "uint64",
    },
    "file": {
        "id": 3, "input": "in.bin", "output": "out.bin", "dtype": "uint16",
        "pairs": True, "value_dtype": "uint32",
    },
}


class TestRequestShapes:
    def test_shapes_carry_every_known_key(self):
        from repro.service.driver import REQUEST_KEYS

        carried = set().union(*FULL_RECORDS.values())
        assert carried == REQUEST_KEYS

    @pytest.mark.parametrize("shape", sorted(FULL_RECORDS))
    def test_every_key_is_read(self, shape):
        from repro.service.driver import request_kwargs

        kwargs = request_kwargs(FULL_RECORDS[shape])
        if shape == "inline":
            assert kwargs["data"].dtype == np.int32
            assert kwargs["values"].dtype == np.uint64
            assert kwargs["memory_budget"] == 1 << 20
            assert kwargs["deadline"] == 5.0
        elif shape == "generated":
            assert kwargs["data"].dtype == np.uint64
            assert kwargs["data"].size == 64
            assert kwargs["values"] is not None
            reseeded = request_kwargs({**FULL_RECORDS[shape], "seed": 4})
            assert kwargs["data"].tobytes() != reseeded["data"].tobytes()
        else:
            assert kwargs == {
                "data": "in.bin", "output": "out.bin", "dtype": "uint16",
                "value_dtype": "uint32",
            }
