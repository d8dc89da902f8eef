#!/usr/bin/env python3
"""Reachability lint for the simulator headers and the functions they
declare.

Code that only the unit tests call is code no figure, example, tool or
other module runs: tests keep it compiling and passing, but nobody
needs it. This lint fails on it at two levels, so dead code gets
deleted instead of maintained.

Header level. A header under ``src/`` counts as reached when some file
under ``src/``, ``bench/``, ``examples/`` or ``tools/`` other than its
own ``.cpp`` (same path, ``.cpp`` suffix) includes it. Includes may
name the header by its ``src/``-relative path (``#include
"engine/rm_ssd.h"``) or, from the same directory, by its bare file
name.

Function level. Every function and method a ``src/`` header declares
must be reached from some file under those four directories, other
than at a declaration or definition. A free function is reached when
its name appears at all. A method is reached only through a member
use of its name: ``obj.name(``, ``ptr->name(``, ``Class::name`` (a
call or ``&Class::name``), or an unqualified ``name(`` inside the
body of a class related to its own by inheritance (its own class, a
base or a derived class: a member calling its sibling, an override
called by its base's code). A free function ``name(`` elsewhere does
not reach a method of that name. Matching is still by name: a member
call of any function with the same name counts, so an override is
reached through a call of its base's virtual, an overload through a
call of any of its siblings, and a method through a same-named method
of any other class (``std::map::contains`` hides a ``contains`` of
ours). The lint can therefore miss dead code, but it never flags a
name that something outside the tests uses. Constructors,
destructors, operators and ``= delete`` declarations are not checked.
A function declared in a header that the header level already flags
is not reported again.

Files under ``tests/`` never count, and comments and string literals
name nothing.

Two markers, each in a comment, accept what the rules would flag. Each
must give a reason; a marker without one is itself a finding.

- ``reachability: entry-point <reason>`` anywhere in a header marks a
  public entry point, called from outside the repo, not from it. The
  reason says who the outside caller is. It covers the header and
  every function it declares.
- ``reachability: test-observer <reason>`` on a declaration (in the
  comment block directly above it, or trailing on its line) accepts an
  accessor, or a check kept apart from the code it checks, that only
  tests use to observe state. The reason names the test whose check
  would otherwise be lost.

Usage:
    lint_reachability.py [--root DIR]

``--root`` lints another tree laid out like the repo (defaults to the
repo itself).

Exit status: 0 when clean, 1 with a findings report otherwise.
"""

from __future__ import annotations

import argparse
import bisect
import pathlib
import re
import sys
from dataclasses import dataclass

REPO = pathlib.Path(__file__).resolve().parent.parent

INCLUDER_DIRS = ["src", "bench", "examples", "tools"]
SOURCE_SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"(?P<path>[^"]+)"', re.M)
ENTRY_RE = re.compile(r"reachability:\s*entry-point\b(?P<reason>[^\n]*)")
OBSERVER_RE = re.compile(
    r"reachability:\s*test-observer\b(?P<reason>[^\n]*)")

# Comments, string and character literals, blanked by mask().
# A quote after a digit or letter is a digit separator (1'000), not a
# character literal.
LEXEMES_RE = re.compile(
    r'//[^\n]*|/\*.*?\*/|R"(?P<d>[^(\s]*)\(.*?\)(?P=d)"'
    r'|"(?:\\.|[^"\\\n])*"|(?<![\w])\'(?:\\.|[^\'\\\n])+\'',
    re.S)
PREPROCESSOR_RE = re.compile(r"^[ \t]*#(?:[^\n]*\\\n)*[^\n]*", re.M)
TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\d[\w'.]*|::|->|&&|\S")
# A member use of a name: obj.name( / ptr->name( (or a template call,
# name<), or X::name (a qualified call or a member pointer). Matched on
# the masked text, so macro bodies count.
MEMBER_USE_RE = re.compile(
    r"(?:(?:\.|->)\s*(?P<name>[A-Za-z_]\w*)\s*[(<]"
    r"|::\s*(?P<qname>[A-Za-z_]\w*))")

SCOPE_KEYWORDS = {"namespace", "class", "struct", "union", "extern"}
CLASS_KEYWORDS = {"class", "struct", "union"}
# Identifiers that cannot be the type in front of a declared name, or
# that are never function names.
KEYWORDS = {
    "alignas", "alignof", "auto", "bool", "break", "case", "catch",
    "char", "class", "const", "constexpr", "continue", "decltype",
    "default", "delete", "do", "double", "else", "enum", "explicit",
    "extern", "false", "float", "for", "friend", "goto", "if", "inline",
    "int", "long", "namespace", "new", "noexcept", "nullptr", "operator",
    "private", "protected", "public", "return", "short", "signed",
    "sizeof", "static", "static_assert", "struct", "switch", "template",
    "this", "throw", "true", "try", "typedef", "typeid", "typename",
    "union", "unsigned", "using", "virtual", "void", "volatile", "while",
}
TYPE_KEYWORDS = {"auto", "bool", "char", "double", "float", "int",
                 "long", "short", "signed", "unsigned", "void", "const"}
ACCESS = {"public", "private", "protected"}


def mask(text: str) -> str:
    """``text`` with comments and literals blanked (newlines kept)."""
    def blank(m: re.Match) -> str:
        return re.sub(r"[^\n]", " ", m.group(0))
    return LEXEMES_RE.sub(blank, text)


@dataclass
class Decl:
    name: str
    qualname: str
    line: int       # 1-based line of the name
    first_line: int  # 1-based line where the declaration starts
    is_method: bool  # declared inside a class body
    owner: str       # the class of a method, "" for a free function


@dataclass
class Scope:
    """One open brace: a class (``name``), a namespace (``name`` ""),
    or code (``code``) inside the classes ``context``."""
    name: str
    code: bool
    context: tuple[str, ...]


class Unit:
    """One source file: its tokens and the functions it declares."""

    def __init__(self, path: pathlib.Path):
        self.path = path
        self.text = path.read_text(errors="replace")
        masked = mask(self.text)
        self.line_starts = [0] + [i + 1 for i, c in enumerate(masked)
                                  if c == "\n"]
        code = PREPROCESSOR_RE.sub(
            lambda m: re.sub(r"[^\n]", " ", m.group(0)), masked)
        # Identifiers in macro bodies still name what they call.
        self.idents = [(m.group(0), m.start()) for m in
                       re.finditer(r"[A-Za-z_]\w*", masked)]
        self.tokens = [(m.group(0), m.start())
                       for m in TOKEN_RE.finditer(code)]
        self.decls: list[Decl] = []
        self.decl_offsets: set[int] = set()
        # Unqualified calls with the classes whose code makes them, and
        # the base classes of the classes defined here.
        self.bare_calls: set[tuple[str, tuple[str, ...]]] = set()
        self.bases: dict[str, set[str]] = {}
        self._scan()
        # Names used as members: obj.name(, ptr->name(, X::name.
        self.member_uses: set[str] = set()
        for m in MEMBER_USE_RE.finditer(masked):
            group = "name" if m.group("name") else "qname"
            if m.start(group) not in self.decl_offsets:
                self.member_uses.add(m.group(group))

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self.line_starts, offset)

    def _scan(self) -> None:
        """Find declarations and definitions at namespace/class scope.

        A brace opens either a scope (namespace, class, struct, union,
        ``extern "C"``), whose statements are scanned, or code (a
        function body, an initializer, an enum), which is skipped.
        """
        scopes: list[Scope] = []
        stmt: list[int] = []
        for i, (tok, _) in enumerate(self.tokens):
            in_code = bool(scopes) and scopes[-1].code
            if in_code and self._is_bare_call(i):
                self.bare_calls.add((tok, scopes[-1].context))
            if tok == "{":
                if not in_code:
                    kind = self._scope_name(stmt)
                    classes = tuple(s.name for s in scopes if s.name)
                    if kind is None:
                        # A function body (or an initializer): its code
                        # runs inside the classes around it, or those
                        # its qualified name names (C::f).
                        self._record(stmt, classes)
                        context = classes + self._qualifiers(stmt)
                        for j in stmt:
                            if self._is_bare_call(j):
                                self.bare_calls.add(
                                    (self.tokens[j][0], context))
                        scopes.append(Scope("", True, context))
                    else:
                        if kind:
                            self._record_bases(kind, stmt)
                        scopes.append(Scope(kind, False, classes))
                    stmt = []
                else:
                    scopes.append(Scope("", True, scopes[-1].context))
            elif tok == "}":
                if scopes:
                    scopes.pop()
                if not scopes or not scopes[-1].code:
                    stmt = []
            elif in_code:
                continue
            elif tok == ";":
                self._record(stmt,
                             tuple(s.name for s in scopes if s.name))
                stmt = []
            else:
                stmt.append(i)

    def _qualifiers(self, stmt: list[int]) -> tuple[str, ...]:
        """The scopes a definition's name is qualified with (``C`` in
        ``C::f(`` or ``C::C(``)."""
        words = self._words(stmt)
        if "(" not in words:
            return ()
        j = words.index("(") - 1
        quals: list[str] = []
        while j >= 2 and words[j - 1] == "::":
            quals.insert(0, words[j - 2])
            j -= 2
        return tuple(quals)

    def _is_bare_call(self, i: int) -> bool:
        """Token i is an unqualified call: ``name(``, not ``.name(``,
        ``->name(`` or ``X::name(``."""
        tok = self.tokens[i][0]
        return (re.fullmatch(r"[A-Za-z_]\w*", tok) is not None
                and tok not in KEYWORDS
                and i + 1 < len(self.tokens)
                and self.tokens[i + 1][0] == "("
                and (i == 0 or self.tokens[i - 1][0] not in
                     {".", "->", "::"})
                and self.tokens[i][1] not in self.decl_offsets)

    def _record_bases(self, name: str, stmt: list[int]) -> None:
        """The base classes after ``class name :`` (last component of
        each qualified name, template arguments skipped)."""
        words = self._words(stmt)
        if ":" not in words:
            return
        bases, depth = set(), 0
        last = None
        for w in words[words.index(":") + 1:] + [","]:
            depth += (w == "<") - (w == ">")
            if depth:
                continue
            if w == ",":
                if last:
                    bases.add(last)
                last = None
            elif (re.fullmatch(r"[A-Za-z_]\w*", w) and w not in ACCESS
                  and w != "virtual"):
                last = w
        self.bases.setdefault(name, set()).update(bases)

    def _words(self, stmt: list[int]) -> list[str]:
        return [self.tokens[i][0] for i in stmt]

    def _scope_name(self, stmt: list[int]) -> str | None:
        """Class name, "" for a namespace, None if the brace opens code."""
        words = self._words(stmt)
        if words[:1] == ["template"]:
            depth = 0
            for k, w in enumerate(words):
                depth += (w == "<") - (w == ">")
                if w == ">" and depth == 0:
                    words = words[k + 1:]
                    break
        if words[:1] == ["inline"]:
            words = words[1:]
        if not words or words[0] not in SCOPE_KEYWORDS:
            return None
        if words[0] not in CLASS_KEYWORDS:
            return ""
        k = 1
        while k < len(words):
            w = words[k]
            if w == "alignas":
                k = words.index(")", k) + 1
            elif w == "[":
                k = words.index("]", words.index("]", k) + 1) + 1
            elif re.fullmatch(r"[A-Za-z_]\w*", w):
                return w
            else:
                k += 1
        return ""

    def _record(self, stmt: list[int], classes: tuple[str, ...]) -> None:
        """Record the function this statement declares or defines, if
        any; ``classes`` are the class bodies around it."""
        words = self._words(stmt)
        while len(words) >= 2 and words[0] in ACCESS and words[1] == ":":
            stmt, words = stmt[2:], words[2:]
        if "(" not in words or words[-2:] == ["=", "delete"]:
            return
        k = words.index("(") - 1
        name = words[k] if k >= 0 else ""
        if (not re.fullmatch(r"[A-Za-z_]\w*", name)
                or name in KEYWORDS):
            return
        quals = []
        j = k
        while j >= 2 and words[j - 1] == "::":
            quals.insert(0, words[j - 2])
            j -= 2
        if j == 0:
            return  # A macro or constructor call, not a declaration.
        prev = words[j - 1]
        typeish = (prev in TYPE_KEYWORDS or prev in {">", "*", "&", "&&"}
                   or (re.fullmatch(r"[A-Za-z_]\w*", prev)
                       and prev not in KEYWORDS))
        cls = classes[-1] if classes else ""
        owner = quals[-1] if quals else cls
        if not typeish or name == owner:
            return
        offset = self.tokens[stmt[k]][1]
        self.decl_offsets.add(offset)
        self.decls.append(Decl(
            name=name,
            qualname="::".join(q for q in [owner, name] if q),
            line=self.line_of(offset),
            first_line=self.line_of(self.tokens[stmt[0]][1]),
            is_method=bool(cls),
            owner=owner))

    def observer_reason(self, decl: Decl) -> str | None:
        """The test-observer marker's reason, or None without a marker."""
        lines = self.text.splitlines()
        marked = lines[decl.first_line - 1:decl.line]
        above = decl.first_line - 2
        while above >= 0 and re.match(r"\s*(//|/\*|\*)", lines[above]):
            marked.append(lines[above])
            above -= 1
        for line in marked:
            m = OBSERVER_RE.search(line)
            if m:
                return m.group("reason")
        return None


def sources(root: pathlib.Path) -> list[pathlib.Path]:
    files = []
    for d in INCLUDER_DIRS:
        base = root / d
        if base.is_dir():
            files.extend(p for p in sorted(base.rglob("*"))
                         if p.suffix in SOURCE_SUFFIXES and p.is_file())
    return files


def included_headers(path: pathlib.Path, src: pathlib.Path) -> set[str]:
    """``src/``-relative paths this file's quoted includes may name."""
    out = set()
    for m in INCLUDE_RE.finditer(path.read_text(errors="replace")):
        name = m.group("path")
        out.add(name)
        # Same-directory spelling: "rm_ssd.h" next to the includer.
        sibling = path.parent / name
        if sibling.is_relative_to(src):
            out.add(sibling.relative_to(src).as_posix())
    return out


def bare_reason(reason: str) -> bool:
    return not reason.strip(" \t-—:*/")


def lint_headers(root: pathlib.Path) -> tuple[list[str], set]:
    """Header-level findings, and the headers whose functions need no
    check: the flagged ones and the marked entry points."""
    src = root / "src"
    includers: dict[str, set[pathlib.Path]] = {}
    for path in sources(root):
        for header in included_headers(path, src):
            includers.setdefault(header, set()).add(path)

    findings, skip = [], set()
    for header in sorted(src.rglob("*.h")):
        key = header.relative_to(src).as_posix()
        own_cpp = header.with_suffix(".cpp")
        users = includers.get(key, set()) - {own_cpp}
        marker = ENTRY_RE.search(header.read_text(errors="replace"))
        where = header.relative_to(root).as_posix()
        if marker and bare_reason(marker.group("reason")):
            findings.append(
                f"{where}: entry-point marker has no reason (say who "
                f"calls it from outside the repo)")
        elif not users and not marker:
            findings.append(
                f"{where}: no includer in {', '.join(INCLUDER_DIRS)} "
                f"besides its own .cpp (delete it, or mark a public "
                f"entry point with 'reachability: entry-point <reason>')")
        if marker or not users:
            skip.add(header)
    return findings, skip


def ancestors(units: list[Unit]) -> dict[str, set[str]]:
    """Each class that has bases, with all of them (transitively) and
    itself."""
    bases: dict[str, set[str]] = {}
    for u in units:
        for cls, direct in u.bases.items():
            bases.setdefault(cls, set()).update(direct)

    def up(cls: str) -> set[str]:
        seen, todo = {cls}, [cls]
        while todo:
            for base in bases.get(todo.pop(), set()) - seen:
                seen.add(base)
                todo.append(base)
        return seen

    return {cls: up(cls) for cls in bases}


def method_reached(d: Decl, member_uses: set[str],
                   bare_calls: dict[str, list[tuple[str, ...]]],
                   lineage: dict[str, set[str]]) -> bool:
    """A member use of the name, or an unqualified call of it in the
    code of the method's class, a base or a derived class."""
    if d.name in member_uses:
        return True
    owner_up = lineage.get(d.owner, {d.owner})
    return any(cls in owner_up or d.owner in lineage.get(cls, {cls})
               for context in bare_calls.get(d.name, [])
               for cls in context)


def lint_functions(root: pathlib.Path, skip: set) -> list[str]:
    units = [Unit(p) for p in sources(root)]
    used: set[str] = set()
    member_uses: set[str] = set()
    bare_calls: dict[str, list[tuple[str, ...]]] = {}
    for u in units:
        used.update(name for name, off in u.idents
                    if off not in u.decl_offsets)
        member_uses |= u.member_uses
        for name, context in u.bare_calls:
            bare_calls.setdefault(name, []).append(context)
    lineage = ancestors(units)

    findings = []
    for u in units:
        if (u.path.suffix not in {".h", ".hpp"} or u.path in skip
                or not u.path.is_relative_to(root / "src")):
            continue
        where = u.path.relative_to(root).as_posix()
        for d in u.decls:
            reason = u.observer_reason(d)
            if reason is not None and bare_reason(reason):
                findings.append(
                    f"{where}:{d.line}: {d.qualname}: test-observer "
                    f"marker has no reason (name the test that reads it)")
            elif reason is not None:
                continue
            elif d.is_method and not method_reached(
                    d, member_uses, bare_calls, lineage):
                findings.append(
                    f"{where}:{d.line}: {d.qualname} is called nowhere in "
                    f"{', '.join(INCLUDER_DIRS)} as a member (obj.name(, "
                    f"ptr->name(, Class::name, or unqualified inside a "
                    f"related class) (delete it, or mark an accessor "
                    f"that tests read with "
                    f"'reachability: test-observer <reason>')")
            elif not d.is_method and d.name not in used:
                findings.append(
                    f"{where}:{d.line}: {d.qualname} is named nowhere in "
                    f"{', '.join(INCLUDER_DIRS)} besides its declarations "
                    f"and definitions (delete it, or mark an accessor "
                    f"that tests read with "
                    f"'reachability: test-observer <reason>')")
    return findings


def lint(root: pathlib.Path) -> list[str]:
    findings, skip = lint_headers(root)
    return findings + lint_functions(root, skip)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=REPO,
                        help="tree to lint (default: the repo)")
    args = parser.parse_args()
    findings = lint(args.root.resolve())
    if findings:
        print(f"lint_reachability: {len(findings)} finding(s)")
        for f in findings:
            print(f"  {f}")
        return 1
    print("lint_reachability: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
