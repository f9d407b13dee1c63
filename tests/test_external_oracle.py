import subprocess
import sys
import time

import pytest

from policheck import ExternalOracle, MainKB, OracleFailure, Signature
from policheck.oracle import query_of

SERVER = [sys.executable, "-m", "policheck.oracle_server"]


@pytest.fixture
def server_oracle():
    handle = ExternalOracle(SERVER, timeout=10.0)
    yield handle
    handle.close()


def test_protocol_round_trip(server_oracle):
    server_oracle.load_shifted(MainKB(inclusions={("A", "B")}))
    assert server_oracle.query(query_of({"A"}, {"B"}))
    assert not server_oracle.query(query_of({"B"}, {"A"}))
    assert server_oracle.calls == 2


def test_protocol_empty_lhs_and_bot(server_oracle):
    server_oracle.load_shifted(MainKB(disjointness={("A", "B")}))
    assert server_oracle.query(query_of({"A", "B"}, {"Bot"}))
    assert not server_oracle.query(query_of((), {"A"}))


def test_protocol_multi_disjunct_rhs(server_oracle):
    server_oracle.load_shifted(MainKB(inclusions={("A", "B")}))
    assert server_oracle.query(query_of({"A"}, {"B", "C"}))
    assert not server_oracle.query(query_of({"A"}, {"C", "D"}))


def test_preloaded_ontology_file(tmp_path):
    horn = tmp_path / "o.horn"
    horn.write_text("sub A B\nsub B C\n", encoding="utf-8")
    handle = ExternalOracle(SERVER + [str(horn)], timeout=10.0)
    try:
        assert handle.query(query_of({"A"}, {"C"}))
    finally:
        handle.close()


def test_shifted_axioms_cross_the_wire_verbatim(tmp_path):
    # a recording stand-in for a real oracle: logs requests, answers 1
    log = tmp_path / "wire.log"
    recorder = (
        "import sys\n"
        "with open(sys.argv[1], 'a') as log:\n"
        "    for line in sys.stdin:\n"
        "        line = line.rstrip()\n"
        "        if line == 'QUIT':\n"
        "            break\n"
        "        print(line, file=log, flush=True)\n"
        "        print('1', flush=True)\n"
    )
    handle = ExternalOracle([sys.executable, "-c", recorder, str(log)], timeout=10.0)
    try:
        handle.load_shifted(MainKB(disjointness={("A", "B")}))
    finally:
        handle.close()
    assert log.read_text().splitlines() == ["AX disj A B"]


def test_error_response_from_server(server_oracle):
    resp = server_oracle._request("AX nonsense axiom here")
    assert resp.startswith("E")
    resp = server_oracle._request("AX sub A")  # wrong arity
    assert resp.startswith("E")


def test_ax_rejection_surfaces_as_failure(tmp_path):
    refuser = (
        "import sys\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == 'QUIT':\n"
        "        break\n"
        "    print('E not accepted', flush=True)\n"
    )
    handle = ExternalOracle([sys.executable, "-c", refuser], timeout=10.0)
    try:
        with pytest.raises(OracleFailure):
            handle.load_shifted(MainKB(inclusions={("A", "B")}))
        with pytest.raises(OracleFailure):
            handle.query(query_of({"A"}, {"B"}))
    finally:
        handle.close()


def test_timeout_is_oracle_failure():
    hang = "import time\ntime.sleep(60)\n"
    handle = ExternalOracle([sys.executable, "-c", hang], timeout=0.4)
    try:
        with pytest.raises(OracleFailure) as err:
            handle.query(query_of({"A"}, {"B"}))
        assert "timed out" in str(err.value)
    finally:
        handle.close()


def test_late_reply_after_timeout_is_never_read_as_an_answer():
    # answers the first query late with 1 and every later one with 0
    slow = (
        "import sys, time\n"
        "first = True\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == 'QUIT':\n"
        "        break\n"
        "    if first:\n"
        "        time.sleep(0.6)\n"
        "    print('1' if first else '0', flush=True)\n"
        "    first = False\n"
    )
    handle = ExternalOracle([sys.executable, "-c", slow], timeout=0.3)
    try:
        with pytest.raises(OracleFailure):
            handle.query(query_of({"A"}, {"B"}))
        time.sleep(0.6)  # the late reply to the first query has arrived by now
        with pytest.raises(OracleFailure):
            handle.query(query_of({"C"}, {"D"}))
        with pytest.raises(OracleFailure):
            handle.load_shifted(MainKB(inclusions={("A", "B")}))
        assert handle._proc.wait(timeout=5) is not None
    finally:
        handle.close()


def test_dead_process_is_oracle_failure():
    handle = ExternalOracle([sys.executable, "-c", "pass"], timeout=2.0)
    handle._proc.wait(timeout=5)
    with pytest.raises(OracleFailure):
        handle.query(query_of({"A"}, {"B"}))


def test_quit_terminates_server():
    proc = subprocess.Popen(
        SERVER, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    out, _ = proc.communicate("Q A : A\nQUIT\n", timeout=10)
    assert out.splitlines() == ["1"]
    assert proc.returncode == 0


def test_server_survives_garbage():
    proc = subprocess.Popen(
        SERVER, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
    )
    out, _ = proc.communicate("HELLO\nQ A :\nAX whatever\nQ A : A\nQUIT\n", timeout=10)
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("E")
    assert lines[1].startswith("E")
    assert lines[2].startswith("E")
    assert lines[3] == "1"
    assert proc.returncode == 0


def test_declared_signature_is_reported():
    sig = Signature(roles=frozenset({"vr"}))
    handle = ExternalOracle(SERVER, declared_signature=sig, timeout=10.0)
    try:
        assert handle.signature().roles == {"vr"}
    finally:
        handle.close()
