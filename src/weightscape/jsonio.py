"""Canonical JSON encoding: sorted keys, compact separators, one trailing
newline.  Identical payloads serialize to identical bytes."""

import json


def canonical_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
