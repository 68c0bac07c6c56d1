"""The form the pinned report digests were taken in."""

import hashlib
import json


def indented_report_digest(text: str) -> str:
    """sha256 of a report re-rendered as sorted JSON with indent=1, the form
    reports were written in when the pinned digests were taken. The pins
    hold a report's content; test_canonical_json_is_the_compact_sorted_form
    pins the whitespace canonical_json writes."""
    indented = json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n"
    return hashlib.sha256(indented.encode()).hexdigest()
