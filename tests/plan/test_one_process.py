"""In-memory sorts run in the caller's process; threads are the only fan-out.

No entry point takes a ``shards=`` keyword and no CLI verb or flag
starts worker processes: an in-memory sort spreads over cores through
``workers=`` alone.  Passing the keyword fails with Python's own
``TypeError`` rather than being ignored.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core.pairs import make_records
from repro.plan import InputDescriptor
from repro.service import SortService

KEYS = np.arange(64, dtype=np.uint32)[::-1].copy()


def _submit(**kwargs):
    async def go():
        async with SortService() as service:
            return await service.submit(KEYS, **kwargs)

    return asyncio.run(go())


ENTRY_POINTS = {
    "sort": lambda **kw: repro.sort(KEYS, **kw),
    "sort_pairs": lambda **kw: repro.sort_pairs(KEYS, KEYS, **kw),
    "sort_records": lambda **kw: repro.sort_records(
        make_records(KEYS, KEYS), **kw
    ),
    "plan_for": lambda **kw: repro.plan_for(KEYS, **kw),
    "descriptor": lambda **kw: InputDescriptor(
        n=KEYS.size, key_dtype=KEYS.dtype, **kw
    ),
    "service_submit": _submit,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_shards_keyword_is_a_type_error(entry):
    call = ENTRY_POINTS[entry]
    call(workers=2)  # the supported fan-out is accepted
    with pytest.raises(TypeError, match="shards"):
        call(shards=2)


@pytest.mark.parametrize(
    "argv",
    [["serve", "--shards", "2"], ["bench-shard", "--quick"]],
    ids=["serve-flag", "bench-verb"],
)
def test_cli_has_no_process_fan_out(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "shard" in capsys.readouterr().err
