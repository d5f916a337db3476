#!/usr/bin/env python3
"""CI smoke: the service data plane answers identically with and
without shared memory.

Spawns two real ``repro serve`` processes — one with ``--shm``, one
with ``--no-shm`` — and sends the same two scan pairs (the ego's full
scan with the partner's full scan, and with the partner's BV image —
the tier whose arrays workers map straight out of a segment) over the
wire to each: the ``--no-shm`` server dispatches through pickles, the
``--shm`` server through shared-memory segments.

Both servers' responses must be field-identical, both servers must
drain cleanly on SIGTERM, and ``/dev/shm`` must hold no new segments
afterwards.
Exit 0 on success; any assertion failure is a smoke failure.
"""

from __future__ import annotations

import asyncio
import glob
import signal
import subprocess
import sys

from repro.comms.envelope import ServiceRequest
from repro.comms.tiers import Tier, TieredMessage, build_message
from repro.core.pipeline import BBAlign
from repro.detection.simulated import COBEVT_PROFILE, SimulatedDetector
from repro.experiments.common import detect_for_pair
from repro.service import ServiceClient
from repro.simulation.dataset import DatasetConfig, V2VDatasetSim


def scan_pairs():
    """The ego's full scan, and the partner as a full scan and as a BV
    image, keyed by the partner's tier."""
    pair = V2VDatasetSim(DatasetConfig(num_pairs=2, seed=2024))[0].pair
    ego_dets, other_dets = detect_for_pair(
        pair, SimulatedDetector(COBEVT_PROFILE), 7, 0
    )
    other_boxes = [d.box for d in other_dets]
    ego = build_message(
        Tier.FULL_SCAN, [d.box for d in ego_dets], cloud=pair.ego_cloud
    )
    bv_image = BBAlign().bv_matcher.make_bv_image(pair.other_cloud)
    partners = {
        Tier.FULL_SCAN: build_message(
            Tier.FULL_SCAN, other_boxes, cloud=pair.other_cloud
        ),
        Tier.BV_IMAGE: TieredMessage(
            Tier.BV_IMAGE, other_boxes, bv_image=bv_image
        ),
    }
    return ego, partners


def start_server(flag: str) -> tuple[subprocess.Popen, int]:
    process = subprocess.Popen(
        [
            sys.executable,
            "-u",
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--workers",
            "2",
            flag,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    line = process.stdout.readline()
    assert "listening on" in line, f"serve {flag} did not start: {line!r}"
    port = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
    return process, port


async def one_request(port: int, ego, other):
    # One request per connection: the client assigns connection-unique
    # request ids starting at 1, and the per-request RNG stream hangs
    # off the id — identical ids are what make responses comparable.
    client = await ServiceClient.connect("127.0.0.1", port)
    try:
        return await client.request(
            ServiceRequest(request_id=1, ego=ego, other=other)
        )
    finally:
        await client.close()


def drive(port: int, ego, other):
    return asyncio.run(
        asyncio.wait_for(one_request(port, ego, other), timeout=120)
    )


def main() -> int:
    segments_before = set(glob.glob("/dev/shm/*"))
    ego, partners = scan_pairs()
    by_flag: dict = {}
    for flag in ("--shm", "--no-shm"):
        process, port = start_server(flag)
        by_flag[flag] = {}
        try:
            for tier, other in partners.items():
                response = drive(port, ego, other)
                assert response.status == "ok", (tier, response)
                by_flag[flag][tier] = response
            process.send_signal(signal.SIGTERM)
            out, _err = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, out
        assert "drained;" in out, out
    assert by_flag["--shm"] == by_flag["--no-shm"], (
        f"--shm and --no-shm servers diverged:\n{by_flag['--shm']}\n"
        f"!=\n{by_flag['--no-shm']}"
    )
    leaked = sorted(set(glob.glob("/dev/shm/*")) - segments_before)
    assert not leaked, f"leaked shared-memory segments: {leaked}"
    print(
        "service data-plane smoke (full-scan and BV-image partners): "
        "--shm server == --no-shm server, zero leaked segments"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
