"""Protocol-exhaustiveness checker.

The migration protocol's message-type enums (LibMsgType for ML<->ME,
MeMsgType for the outer envelope / ME<->ME records) are dispatched by
hand-written switches in migration_enclave.cpp and consumed by
hand-written `reply.type != ...` checks in migration_library.cpp.
Nothing in the compiler forces a new enum value to grow a handler, or a
deleted handler to take its enum value with it — this checker does:

  protocol-missing-handler   a request enumerator has no `case` in the
                             enclave's dispatch switch for that enum
  protocol-consume           a response enumerator is never referenced
                             by the library (the consumer side)
  protocol-duplicate-case    the same enumerator appears twice in one
                             switch (the second is unreachable)
  protocol-stale-case        a `case` names an enumerator the enum no
                             longer defines
  protocol-untested          an enumerator is never mentioned anywhere
                             under tests/ (new message types cannot
                             ship untested)
  protocol-record-golden     a struct in the protocol header declares a
                             byte `layout` but is not named in the
                             WireGolden table (`wire_golden_table()`
                             under tests/), so nothing freezes its bytes

Request vs. response classification comes from the enum's own section
comments (`// requests (ML -> ME)` / `// responses (ME -> ML)`) with a
per-enumerator trailing `// request:` / `// response:` override.
Enums without section markers (MeMsgType: everything an ME receives)
are all requests.  Suppress with `// simlint: allow(<rule>)` on the
enumerator's line.
"""

from __future__ import annotations

import dataclasses
import pathlib
import re

from util import Finding, SourceFile, parse_allows

ENUM_RE = re.compile(r"enum\s+class\s+(\w+)")
ENUMERATOR_RE = re.compile(r"^\s*(k\w+)\s*(?:=\s*\d+)?\s*,?")
SECTION_REQ_RE = re.compile(r"^\s*requests?\b", re.IGNORECASE)
SECTION_RESP_RE = re.compile(r"^\s*responses?\b", re.IGNORECASE)
TRAILING_REQ_RE = re.compile(r"^\s*request\b", re.IGNORECASE)
TRAILING_RESP_RE = re.compile(r"^\s*response\b", re.IGNORECASE)
CASE_RE = re.compile(r"\bcase\s+(\w+)\s*::\s*(k\w+)")
STRUCT_RE = re.compile(r"\bstruct\s+(\w+)\b[^;{()]*\{")
LAYOUT_RE = re.compile(r"\blayout\s*\(")
GOLDEN_TABLE_RE = re.compile(r"\bwire_golden_table\s*\(\s*\)\s*\{")


@dataclasses.dataclass
class Enumerator:
    name: str
    line: int
    is_request: bool
    allows: set[str]


@dataclasses.dataclass
class Enum:
    name: str
    line: int
    values: list[Enumerator]


@dataclasses.dataclass
class Switch:
    line: int
    # enum name -> list of (enumerator, line) in source order
    cases: dict[str, list[tuple[str, int]]]


def _block_end(text: str, open_brace: int) -> int:
    """Index one past the matching '}' for the '{' at open_brace."""
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def parse_enums(src: SourceFile) -> list[Enum]:
    """Message-type enums with request/response classification."""
    enums: list[Enum] = []
    code = src.code
    for match in ENUM_RE.finditer(code):
        open_brace = code.find("{", match.end())
        if open_brace < 0:
            continue
        end = _block_end(code, open_brace)
        start_line = code.count("\n", 0, open_brace) + 1
        end_line = code.count("\n", 0, end) + 1
        enum = Enum(match.group(1), code.count("\n", 0, match.start()) + 1, [])
        section_is_request = True
        for line_no in range(start_line, end_line + 1):
            raw = src.raw_lines[line_no - 1] if line_no <= len(
                src.raw_lines) else ""
            comment = raw.split("//", 1)[1] if "//" in raw else ""
            if SECTION_REQ_RE.search(comment) and not ENUMERATOR_RE.match(
                    src.code_lines[line_no - 1]):
                section_is_request = True
                continue
            if SECTION_RESP_RE.search(comment) and not ENUMERATOR_RE.match(
                    src.code_lines[line_no - 1]):
                section_is_request = False
                continue
            m = ENUMERATOR_RE.match(src.code_lines[line_no - 1])
            if not m:
                continue
            is_request = section_is_request
            if TRAILING_REQ_RE.search(comment):
                is_request = True
            elif TRAILING_RESP_RE.search(comment):
                is_request = False
            enum.values.append(Enumerator(m.group(1), line_no, is_request,
                                          parse_allows(comment)))
        if enum.values:
            enums.append(enum)
    return enums


def parse_switches(src: SourceFile) -> list[Switch]:
    switches: list[Switch] = []
    code = src.code
    for match in re.finditer(r"\bswitch\s*\(", code):
        open_brace = code.find("{", match.end())
        if open_brace < 0:
            continue
        end = _block_end(code, open_brace)
        body = code[open_brace:end]
        base_line = code.count("\n", 0, match.start()) + 1
        brace_line = code.count("\n", 0, open_brace) + 1
        cases: dict[str, list[tuple[str, int]]] = {}
        for case in CASE_RE.finditer(body):
            line = brace_line + body.count("\n", 0, case.start())
            cases.setdefault(case.group(1), []).append((case.group(2), line))
        if cases:
            switches.append(Switch(base_line, cases))
    return switches


def layout_structs(src: SourceFile) -> list[tuple[str, int]]:
    """(name, line) of every struct whose body declares a `layout`."""
    code = src.code
    found: list[tuple[str, int]] = []
    for match in STRUCT_RE.finditer(code):
        open_brace = match.end() - 1
        body = code[open_brace:_block_end(code, open_brace)]
        if LAYOUT_RE.search(body):
            found.append((match.group(1),
                          code.count("\n", 0, match.start()) + 1))
    return found


def golden_table_text(root: pathlib.Path,
                      tests_dir: pathlib.Path) -> str | None:
    """Raw text (row-name strings included) of `wire_golden_table()`."""
    if not tests_dir.is_dir():
        return None
    for path in sorted(tests_dir.glob("*.cpp")):
        if "wire_golden_table" not in path.read_text(encoding="utf-8",
                                                     errors="replace"):
            continue
        src = SourceFile(path, root)
        match = GOLDEN_TABLE_RE.search(src.code)
        if match is None:
            continue
        open_brace = match.end() - 1
        # Stripping keeps every column, so code offsets index the raw text.
        raw = "\n".join(src.raw_lines)
        return raw[open_brace:_block_end(src.code, open_brace)]
    return None


def _mentioned_in(name: str, haystacks: list[str]) -> bool:
    pattern = re.compile(r"\b" + re.escape(name) + r"\b")
    return any(pattern.search(text) for text in haystacks)


def check(root: pathlib.Path,
          header: pathlib.Path | None = None,
          enclave: pathlib.Path | None = None,
          library: pathlib.Path | None = None,
          tests_dir: pathlib.Path | None = None,
          enum_names: tuple[str, ...] = ("MeMsgType", "LibMsgType"),
          ) -> list[Finding]:
    header = header or root / "src/migration/protocol.h"
    enclave = enclave or root / "src/migration/migration_enclave.cpp"
    library = library or root / "src/migration/migration_library.cpp"
    tests_dir = tests_dir or root / "tests"

    findings: list[Finding] = []
    for required in (header, enclave, library):
        if not required.is_file():
            findings.append(Finding(str(required), 0, "protocol-config",
                                    "required source file not found"))
    if findings:
        return findings

    header_src = SourceFile(header, root)
    enclave_src = SourceFile(enclave, root)
    library_src = SourceFile(library, root)
    enums = {e.name: e for e in parse_enums(header_src)
             if e.name in enum_names}
    for name in enum_names:
        if name not in enums:
            findings.append(Finding(header_src.rel, 0, "protocol-config",
                                    f"enum {name} not found in header"))
    switches = parse_switches(enclave_src)

    test_texts = [p.read_text(encoding="utf-8", errors="replace")
                  for p in sorted(tests_dir.rglob("*.cpp"))] \
        if tests_dir.is_dir() else []

    for enum in enums.values():
        defined = {v.name for v in enum.values}
        # The dispatch switch = the switch with the most cases over this
        # enum; duplicate/stale checks cover every switch that touches it.
        relevant = [s for s in switches if enum.name in s.cases]
        dispatch = max(relevant, key=lambda s: len(s.cases[enum.name]),
                       default=None)
        handled = {name for name, _ in dispatch.cases[enum.name]} \
            if dispatch else set()

        for sw in relevant:
            seen: dict[str, int] = {}
            for case_name, line in sw.cases[enum.name]:
                if case_name in seen:
                    findings.append(Finding(
                        enclave_src.rel, line, "protocol-duplicate-case",
                        f"duplicate case {enum.name}::{case_name} "
                        f"(first at line {seen[case_name]}; the second "
                        "handler is dead)"))
                else:
                    seen[case_name] = line
                if case_name not in defined:
                    findings.append(Finding(
                        enclave_src.rel, line, "protocol-stale-case",
                        f"case {enum.name}::{case_name} names an "
                        "enumerator the enum does not define"))

        for value in enum.values:
            def skip(rule: str) -> bool:
                return rule in value.allows or "all" in value.allows

            if value.is_request:
                if value.name not in handled and not skip(
                        "protocol-missing-handler"):
                    findings.append(Finding(
                        header_src.rel, value.line,
                        "protocol-missing-handler",
                        f"{enum.name}::{value.name} has no case in the "
                        f"dispatch switch of {enclave_src.rel}"))
            else:
                if not _mentioned_in(f"{enum.name}::{value.name}",
                                     [library_src.code]) and not skip(
                                         "protocol-consume"):
                    findings.append(Finding(
                        header_src.rel, value.line, "protocol-consume",
                        f"response {enum.name}::{value.name} is never "
                        f"consumed by {library_src.rel}"))
            if not _mentioned_in(value.name, test_texts) and not skip(
                    "protocol-untested"):
                findings.append(Finding(
                    header_src.rel, value.line, "protocol-untested",
                    f"{enum.name}::{value.name} is never mentioned under "
                    f"{tests_dir.name}/ — new message types must land with "
                    "test coverage"))

    records = layout_structs(header_src)
    table = golden_table_text(root, tests_dir) if records else None
    for name, line in records:
        if header_src.allowed(line, "protocol-record-golden"):
            continue
        if table is None or not _mentioned_in(name, [table]):
            findings.append(Finding(
                header_src.rel, line, "protocol-record-golden",
                f"record {name} declares a layout but is not named in the "
                f"WireGolden table (wire_golden_table() under "
                f"{tests_dir.name}/): add a row pinning its bytes"))
    return findings
