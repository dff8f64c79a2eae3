"""PL008 fixture: a stream request handler with no socket timeout.

Linted as ``src/repro/serve/fixture.py``; the handler class below must
be flagged, since its body read waits forever on a client that promised
more bytes than it sends.
"""

from http.server import BaseHTTPRequestHandler


class SilentClientHandler(BaseHTTPRequestHandler):  # PL008: no socket timeout
    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", "0"))
        self.rfile.read(length)  # waits forever for a body that never comes
