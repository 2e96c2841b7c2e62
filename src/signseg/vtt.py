"""WebVTT cue output for decoded segments."""

from .numutil import check_fps


def format_timestamp(seconds: float) -> str:
    if seconds < 0:
        raise ValueError("timestamp must be non-negative")
    total_ms = round(seconds * 1000)
    h, rem = divmod(total_ms, 3_600_000)
    m, rem = divmod(rem, 60_000)
    s, ms = divmod(rem, 1000)
    return f"{h:02d}:{m:02d}:{s:02d}.{ms:03d}"


def segments_to_vtt(segments, fps: float, label: str) -> str:
    """One cue per segment; cue text is the label plus a 1-based index."""
    check_fps(fps)
    lines = ["WEBVTT", ""]
    for n, seg in enumerate(sorted(segments), 1):
        start = format_timestamp(seg.start / fps)
        end = format_timestamp(seg.end / fps)
        lines.append(f"{start} --> {end}")
        lines.append(f"{label} {n}")
        lines.append("")
    return "\n".join(lines)
