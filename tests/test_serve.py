"""``repro serve``: the stdin loop and the TCP frame server.

Covered:

* the unsharded stdin loop: answers printed in submission order, one
  ``error:`` line for a bad XPath, ``served N`` on stderr, exit 0 at EOF;
* TCP, unsharded and over a sharded DBDIR (``--workers 2``): pipelined
  requests, per-request ``verify``, answers equal to the in-process index;
* ordering: a malformed frame is answered in its turn and takes a position;
* SIGINT exits 0;
* ``--deadline-ms``: every request gets a fresh guard, so requests spaced
  wider than the deadline all answer.

The TCP tests spawn ``python -m repro serve`` as a real process.
"""

from __future__ import annotations

import io
import os
import select
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.dbdir import close_index, open_index
from repro.shard import ShardRouter
from repro.shard.protocol import recv_frame, send_frame

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

DOCS = [
    "<site><item><location>US</location><name>a</name></item></site>",
    "<site><item><location>DE</location><name>b</name></item></site>",
    # location and name under *different* items: a raw false positive of
    # the twig below, which exact mode rejects
    "<site><item><location>US</location></item><item><name>c</name></item></site>",
]
TWIG = "/site/item[location='US'][name]"
QUERIES = [TWIG, "/site//item", "/site/item[location='DE']"]


def _index(dbdir: Path, tmp_path: Path, *extra: str) -> None:
    files = []
    for i, xml in enumerate(DOCS):
        path = tmp_path / f"doc{i}.xml"
        path.write_text(xml)
        files.append(str(path))
    assert main(["index", str(dbdir), *files, *extra]) == 0


@pytest.fixture
def db(tmp_path, capsys):
    dbdir = tmp_path / "db"
    _index(dbdir, tmp_path)
    capsys.readouterr()
    return dbdir


def _expected(dbdir: Path) -> dict:
    """(xpath, verify) -> sorted answer, from the index in process."""
    index = open_index(dbdir)
    try:
        return {
            (xpath, verify): sorted(index.query(xpath, verify=verify))
            for xpath in QUERIES
            for verify in (False, True)
        }
    finally:
        close_index(index)


def _env() -> dict:
    env = os.environ.copy()
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _read_port(proc: subprocess.Popen, timeout_s: float = 60.0) -> int:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        assert proc.poll() is None, f"server exited early: {proc.returncode}"
        ready, _, _ = select.select([proc.stdout], [], [], 0.25)
        if ready:
            line = proc.stdout.readline()
            if line.startswith("PORT "):
                return int(line.split()[1])
    raise AssertionError("server never announced a port")


@contextmanager
def _server(dbdir: Path, *args: str):
    """``repro serve DBDIR --port 0 ARGS``: yields the port, then stops
    the server with SIGINT and requires exit code 0 and its served line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(dbdir), "--port", "0", *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_env(),
    )
    try:
        yield _read_port(proc)
        proc.send_signal(signal.SIGINT)
        _out, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err
        assert "served" in err, err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def _pipeline(port: int, requests: list) -> list:
    """Send every request, then read one reply per request."""
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        for request in requests:
            send_frame(sock, request)
        return [recv_frame(sock) for _ in requests]


def _mixed_requests() -> list[tuple[object, str, bool]]:
    """(frame, xpath, verify): bare strings, explicit raw, explicit exact."""
    requests = []
    for xpath in QUERIES:
        requests.append((xpath, xpath, False))
        requests.append(({"xpath": xpath, "verify": True}, xpath, True))
        requests.append(({"xpath": xpath, "verify": False}, xpath, False))
    return requests


def _assert_answers(replies: list, requests: list, expected: dict) -> None:
    assert [reply["position"] for reply in replies] == list(range(len(requests)))
    for reply, (_frame, xpath, verify) in zip(replies, requests):
        assert reply["ok"], reply
        assert reply["xpath"] == xpath
        assert reply["result"] == expected[xpath, verify], (xpath, verify)


class TestStdinLoop:
    def test_answers_in_order_errors_inline_exit_zero(self, db, monkeypatch, capsys):
        expected = _expected(db)
        lines = [TWIG, "# a comment", "", "//[", "/site//item"]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", str(db)]) == 0
        captured = capsys.readouterr()
        out = captured.out.splitlines()
        assert len(out) == 3
        assert out[0] == f"0\t{TWIG}\t2 match(es): {expected[TWIG, False]}"
        assert out[1].startswith("1\t//[\terror: ")
        assert out[2] == f"2\t/site//item\t3 match(es): {expected['/site//item', False]}"
        assert "served 3 query/queries" in captured.err

    def test_verify_flag_applies_to_every_line(self, db, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(TWIG + "\n"))
        assert main(["serve", str(db), "--verify"]) == 0
        assert capsys.readouterr().out == f"0\t{TWIG}\t1 match(es): [0]\n"


class TestTcp:
    def test_unsharded_pipelined_requests(self, db):
        expected = _expected(db)
        assert expected[TWIG, False] != expected[TWIG, True]  # verify shows
        requests = _mixed_requests()
        with _server(db) as port:
            replies = _pipeline(port, [frame for frame, _, _ in requests])
        _assert_answers(replies, requests, expected)

    def test_sharded_pipelined_requests(self, tmp_path, capsys):
        dbdir = tmp_path / "sdb"
        _index(dbdir, tmp_path, "--shards", "2")
        capsys.readouterr()
        with ShardRouter(dbdir) as router:
            expected = {
                (xpath, verify): sorted(router.query(xpath, verify=verify))
                for xpath in QUERIES
                for verify in (False, True)
            }
        requests = _mixed_requests()
        with _server(dbdir, "--workers", "2") as port:
            replies = _pipeline(port, [frame for frame, _, _ in requests])
        _assert_answers(replies, requests, expected)

    def test_malformed_frame_is_answered_in_turn(self, tmp_path):
        """A malformed frame's error must neither overtake the replies of
        the slow requests before it nor reuse a position."""
        from repro.datasets.dblp import DblpConfig, write_corpus

        corpus = tmp_path / "dblp.xml"
        write_corpus(str(corpus), 300, DblpConfig(seed=7))
        dbdir = tmp_path / "db"
        split = "article,inproceedings,book,incollection,phdthesis"
        assert main(["ingest", str(dbdir), str(corpus), "--split", split,
                     "--no-spine"]) == 0
        slow = {"xpath": "//article//*", "verify": True}
        with _server(dbdir) as port:
            replies = _pipeline(port, [slow] * 20 + [42, "//article/author"])
        assert [reply["position"] for reply in replies] == list(range(22))
        assert [reply["ok"] for reply in replies] == [True] * 20 + [False, True]
        assert replies[20]["error_type"] == "FrameError"
        assert "malformed request: 42" in replies[20]["error"]

    def test_sigint_with_a_connection_open_exits_zero(self, db):
        sock = None
        try:
            with _server(db) as port:
                sock = socket.create_connection(("127.0.0.1", port), timeout=60)
                send_frame(sock, "/site//item")
                assert recv_frame(sock)["result"] == [0, 1, 2]
            # leaving _server sent SIGINT with the connection still open
            # and required exit code 0
        finally:
            if sock is not None:
                sock.close()

    def test_deadline_guard_is_fresh_per_request(self, db):
        """Two requests 0.5 s apart under a 300 ms deadline: a guard shared
        across requests would time the second one out."""
        with _server(db, "--deadline-ms", "300") as port:
            with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
                send_frame(sock, "/site//item")
                first = recv_frame(sock)
                time.sleep(0.5)
                send_frame(sock, "/site//item")
                second = recv_frame(sock)
        assert first["ok"] and second["ok"], (first, second)
        assert first["result"] == second["result"] == [0, 1, 2]
