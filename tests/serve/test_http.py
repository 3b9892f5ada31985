"""The HTTP/1.1 transport: real sockets, real clients.

:class:`~repro.serve.server.HttpServer` is exercised with ``urllib``
from a worker thread while the asyncio loop serves, and the ``repro
serve`` CLI entry point is booted as a subprocess once -- the same
round trip the CI serve job performs.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro.serve.server import HttpServer, ServeApp
from repro.serve.store import DesignStore

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _fetch(url, body=None):
    request = urllib.request.Request(
        url,
        data=None if body is None else json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


async def _serve(app, scenario):
    """Run ``scenario(base_url)`` in a thread while the loop serves."""
    server = HttpServer(app, port=0)
    await server.start()
    host, port = server.address
    loop = asyncio.get_running_loop()
    try:
        return await loop.run_in_executor(
            None, scenario, f"http://{host}:{port}"
        )
    finally:
        await server.close()


@pytest.fixture
def app(tmp_path):
    application = ServeApp(
        DesignStore(str(tmp_path / "designs")),
        default_effort="smoke",
    )
    yield application
    application.executor.shutdown(wait=True)


class TestHttpRoundTrip:
    def test_place_evaluate_metrics_over_a_real_socket(self, app):
        def scenario(base):
            results = {}
            results["health"] = _fetch(f"{base}/healthz")
            results["place1"] = _fetch(f"{base}/place",
                                       {"n": 6, "effort": "smoke"})
            results["place2"] = _fetch(f"{base}/place",
                                       {"n": 6, "effort": "smoke"})
            results["evaluate"] = _fetch(
                f"{base}/evaluate",
                {"n": 6, "express_links": [[0, 3]], "link_limit": 2},
            )
            results["metrics"] = _fetch(f"{base}/metrics")
            return results

        results = asyncio.run(_serve(app, scenario))
        status, body = results["health"]
        assert status == 200
        assert json.loads(body)["status"] == "ok"

        status, body = results["place1"]
        assert status == 200
        first = json.loads(body)
        assert first["cache"] == "miss"

        status, body = results["place2"]
        assert status == 200
        second = json.loads(body)
        assert second["cache"] == "hit"
        assert second["result"] == first["result"]

        status, body = results["evaluate"]
        assert status == 200
        assert "total_latency" in json.loads(body)["result"]

        status, body = results["metrics"]
        assert status == 200
        text = body.decode()
        assert 'repro_serve_cache_hit{service="repro-serve"} 1' in text
        assert 'repro_serve_cache_miss{service="repro-serve"} 1' in text

    def test_error_statuses_cross_the_wire(self, app):
        def scenario(base):
            return {
                "bad": _fetch(f"{base}/place", {"n": 1}),
                "missing": _fetch(f"{base}/runs/feedfacedeadbeef"),
            }

        results = asyncio.run(_serve(app, scenario))
        status, body = results["bad"]
        assert status == 400
        assert "n must be" in json.loads(body)["error"]
        status, _ = results["missing"]
        assert status == 404

    def test_oversized_body_413(self, app):
        async def scenario():
            server = HttpServer(app, port=0)
            await server.start()
            host, port = server.address
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b"POST /evaluate HTTP/1.1\r\n"
                    b"Content-Length: 99999999\r\n\r\n"
                )
                await writer.drain()
                status_line = await reader.readline()
                writer.close()
                return status_line
            finally:
                await server.close()

        status_line = asyncio.run(scenario())
        assert b"413" in status_line

    def test_malformed_request_line_400(self, app):
        async def scenario():
            server = HttpServer(app, port=0)
            await server.start()
            host, port = server.address
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"garbage\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                writer.close()
                return status_line
            finally:
                await server.close()

        assert b"400" in asyncio.run(scenario())


class TestServeCli:
    def test_boot_roundtrip_shutdown(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--effort", "smoke"],
            cwd=str(tmp_path),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "repro serve listening on http://" in banner
            base = banner.split("listening on ", 1)[1].split()[0]
            status, body = _fetch(f"{base}/healthz")
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            status, body = _fetch(
                f"{base}/evaluate",
                {"n": 4, "express_links": [[0, 2]], "link_limit": 2},
            )
            assert status == 200
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT],
                             ids=["sigterm", "sigint"])
    def test_signal_drains_with_sigint_ignored(self, tmp_path, sig):
        # A background job of a non-interactive shell starts with SIGINT
        # ignored; SIGTERM (what CI sends) and SIGINT (what a terminal
        # and the benchmark's server stop send) must both drain and
        # exit 0.
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--effort", "smoke"],
            cwd=str(tmp_path),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            assert "listening on" in proc.stdout.readline()
            proc.send_signal(sig)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0, out
        assert "server stopped" in out
