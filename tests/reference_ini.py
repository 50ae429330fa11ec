"""Reference INI reader on configparser: the oracle `fileio._read_ini` must
match.

The text goes through configparser.ConfigParser(interpolation=None,
delimiters=("=",)), and a parse error becomes a ValidationError built from the
exception's attributes, `origin:line: message`. `_read_ini` must accept
the same texts, give the same sections and values, and raise the same
message at the same line. [DEFAULT] is the one exception: configparser
holds it as defaults for every section, `_read_ini` as a plain section.
"""

import configparser

from phototherm import ValidationError


def parse_error(exc: configparser.Error, origin: str) -> ValidationError:
    """configparser's error as `origin:line: message`."""
    lineno = getattr(exc, "lineno", None)
    if isinstance(exc, configparser.DuplicateOptionError):
        message = f"[{exc.section}] option {exc.option!r} already exists"
    elif isinstance(exc, configparser.DuplicateSectionError):
        message = f"section {exc.section!r} already exists"
    elif isinstance(exc, configparser.MissingSectionHeaderError):
        message = f"line before the first [section] header: {exc.line.strip()!r}"
    elif isinstance(exc, configparser.ParsingError) and exc.errors:
        lineno = exc.errors[0][0]
        message = "expected a [section] header or a key = value line"
    else:
        message = exc.message
    return ValidationError(f"{origin}:{lineno}: {message}" if lineno else f"{origin}: {message}")


def reference_read_ini(text: str, origin: str = "<config>") -> dict:
    """{section: {key: value}} as configparser reads the text."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    try:
        cp.read_string(text, source=origin)
    except configparser.Error as exc:
        raise parse_error(exc, origin) from exc
    return {section: dict(cp[section]) for section in cp.sections()}
