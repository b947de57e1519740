"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` built from the run's seed and returns
plain data: DSL text, feature text and JSON-ready oracle scripts. Nothing here
imports the package under test, so the program receives only the generated
inputs, and the checks in `check.py` can evaluate the same graph specs
without going through the code they check.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

CONSTRAINT_OPS = ("EXC", "INC", "REQ", "XOR")

# A cause expression is ("atom", id) | ("not", expr) | ("and", (expr, ...)) | ("or", (expr, ...)).


def expr_dsl(expr) -> str:
    kind = expr[0]
    if kind == "atom":
        return expr[1]
    if kind == "not":
        return f"NOT({expr_dsl(expr[1])})"
    return f"{kind.upper()}({','.join(expr_dsl(e) for e in expr[1])})"


@dataclass
class GraphSpec:
    """A causal-effect graph as plain data, renderable to the DSL."""

    descriptions: dict[str, str]
    links: list[tuple[str, tuple]] = field(default_factory=list)
    constraints: list[tuple[str, str, str]] = field(default_factory=list)
    restrictions: list[tuple[str, str]] = field(default_factory=list)

    @property
    def conditions(self) -> list[str]:
        return [n for n in self.descriptions if n.startswith("C")]

    @property
    def effects(self) -> list[str]:
        return [n for n in self.descriptions if n.startswith("E")]

    def statements(self) -> list[str]:
        out = []
        for effect, cause in self.links:
            head = f"DIR({cause[1]})" if cause[0] == "atom" else expr_dsl(cause)
            out.append(f"{head}={effect}")
        out += [f"{op}({a},{b})" for op, a, b in self.constraints]
        out += [f"MSK({a},{b})" for a, b in self.restrictions]
        return out

    def dsl(self) -> str:
        decls = [f"{n}: {d}" for n, d in self.descriptions.items()]
        return "\n".join(decls + self.statements()) + "\n"

    def atoms_payload(self) -> dict:
        return {
            "conditions": [{"id": c, "description": self.descriptions[c]}
                           for c in self.conditions],
            "effects": [{"id": e, "description": self.descriptions[e]} for e in self.effects],
        }


# ---------------------------------------------------------------------------
# Small random graphs, in the shape of tests/helpers.random_graph


def _random_expr(rng: random.Random, conditions: list[str], depth: int):
    if depth <= 0 or rng.random() < 0.45:
        return ("atom", rng.choice(conditions))
    kind = rng.choice(("and", "or", "not"))
    if kind == "not":
        return ("not", _random_expr(rng, conditions, depth - 1))
    return (kind, tuple(_random_expr(rng, conditions, depth - 1)
                        for _ in range(rng.randrange(2, 4))))


def random_graph(rng: random.Random, max_conditions: int = 6, max_effects: int = 8,
                 max_statements: int = 12) -> GraphSpec:
    n_conditions = rng.randrange(1, max_conditions + 1)
    n_effects = rng.randrange(1, max_effects + 1)
    conditions = [f"C{i}" for i in range(1, n_conditions + 1)]
    effects = [f"E{i}" for i in range(1, n_effects + 1)]
    spec = GraphSpec({**{c: f"condition {c.lower()}" for c in conditions},
                      **{e: f"effect {e.lower()}" for e in effects}})
    budget = rng.randrange(1, max_statements + 1)
    linked = rng.sample(effects, k=min(rng.randrange(0, n_effects + 1), budget))
    spec.links = [(e, _random_expr(rng, conditions, 2)) for e in sorted(linked)]
    budget -= len(spec.links)
    if n_conditions >= 2:
        for _ in range(rng.randrange(0, min(budget, 4) + 1)):
            a, b = rng.sample(conditions, 2)
            spec.constraints.append((rng.choice(CONSTRAINT_OPS), a, b))
    budget -= len(spec.constraints)
    if n_effects >= 2 and budget > 0:
        for _ in range(rng.randrange(0, min(budget, 2) + 1)):
            spec.restrictions.append(tuple(rng.sample(effects, 2)))
    spec.constraints = list(dict.fromkeys(spec.constraints))
    spec.restrictions = list(dict.fromkeys(spec.restrictions))
    return spec


def _gizmo(cid: str, positive: bool) -> str:
    """A condition step that no lexical match binds; only the BindStep script does."""
    return f"the gizmo {cid} {'on' if positive else 'off'} signal is seen"


def _widget(eid: str, positive: bool) -> str:
    return f"the widget {eid} {'on' if positive else 'off'} lamp is lit"


def _polar(description: str, positive: bool, negation: str) -> str:
    return description if positive else f"{description} {negation}"


def review_draft(rng: random.Random, spec: GraphSpec) -> str:
    """A draft of 1-3 scenarios with random polarity plus a few oracle-only steps.

    The shares are assumed, not measured: 20% of condition steps and 15% of
    effect steps bind only through the BindStep script, so that binding is a
    visible but minor part of review, and 60% of steps are positive.
    """
    conditions, effects = spec.conditions, spec.effects

    def given() -> str:
        cid = rng.choice(conditions)
        if rng.random() < 0.2:
            return _gizmo(cid, rng.random() < 0.5)
        return _polar(spec.descriptions[cid], rng.random() < 0.6, "does not hold")

    def then() -> str:
        eid = rng.choice(effects)
        if rng.random() < 0.15:
            return _widget(eid, rng.random() < 0.5)
        return _polar(spec.descriptions[eid], rng.random() < 0.6, "does not occur")

    lines = ["Feature: Generated review case", ""]
    if rng.random() < 0.3:
        lines += ["  Background:", f"    Given {given()}", ""]
    for s in range(rng.randint(1, 3)):
        lines.append(f"  Scenario: Case {s + 1}")
        for i in range(rng.randint(0, 2)):
            lines.append(f"    {'Given' if i == 0 else 'And'} {given()}")
        lines.append(f"    When {given()}")
        for i in range(rng.randint(1, 2)):
            lines.append(f"    {'Then' if i == 0 else 'And'} {then()}")
        lines.append("")
    return "\n".join(lines)


_ATOM_TEXT = re.compile(r"\b(condition|effect) ([ce]\d+)\b")


def reword(rng: random.Random, spec: GraphSpec, draft: str) -> tuple[str, str]:
    """The graph's DSL and its draft, with the atoms' descriptions reworded.

    "condition c2" becomes, say, "quota c2": one seeded noun per atom. The
    ids and the shape, and so the work of reviewing the graph, stay.
    """
    nouns = dict(zip(spec.descriptions, rng.sample(_NOUNS, len(spec.descriptions))))

    def swap(match: re.Match) -> str:
        return f"{nouns[match.group(2).upper()]} {match.group(2)}"

    return _ATOM_TEXT.sub(swap, spec.dsl()), _ATOM_TEXT.sub(swap, draft)


def review_script(max_conditions: int = 6, max_effects: int = 8) -> dict:
    """BindStep answers for every oracle-only step text, and echoing Review rewrites."""
    rules = []
    for i in range(1, max_conditions + 1):
        for positive in (True, False):
            rules.append({"when_contains": _gizmo(f"C{i}", positive),
                          "answer": {"atom": f"C{i}",
                                     "polarity": "positive" if positive else "negative"}})
    for i in range(1, max_effects + 1):
        for positive in (True, False):
            rules.append({"when_contains": _widget(f"E{i}", positive),
                          "answer": {"atom": f"E{i}",
                                     "polarity": "positive" if positive else "negative"}})
    return {"agents": {
        "BindStep": {"rules": rules, "default": {"answer": {"atom": "none"}}},
        "Review": {"default": {"echo": {"field": "proposed_text", "key": "text"}}},
    }}


# ---------------------------------------------------------------------------
# Wide graphs for exact Boolean analysis


def wide_graph(rng: random.Random, k: int) -> tuple[GraphSpec, list[list[tuple[str, str, str]]]]:
    """A k-condition graph whose shape depends only on k; the seed picks the atoms.

    The conditions, in seeded order, are cut into k/2 pairs (a_i, b_i) with
    links AND(a,b), OR(a,b), AND(a,NOT b), OR(a,NOT b) in turn. Constraints
    EXC(a1,a2), REQ(b1,b3), EXC(a3,a5), XOR(a4,b5) forbid the all-true
    baseline, and MSK(E1,E2) masks the second link's effect. A fixed shape
    keeps the work of one pass, and so its run time, nearly the same for
    every seed. Also returns required constraint patterns for
    diff_constraint_coverage: two of the graph's own constraints, a
    disjunction, and two random constraints.
    """
    conditions = [f"C{i}" for i in range(1, k + 1)]
    effects = [f"E{i}" for i in range(1, k // 2 + 1)]
    spec = GraphSpec({**{c: f"condition {c.lower()}" for c in conditions},
                      **{e: f"effect {e.lower()}" for e in effects}})
    order = rng.sample(conditions, k)
    a, b = order[0::2], order[1::2]
    for i, effect in enumerate(effects):
        second = ("atom", b[i]) if i % 4 < 2 else ("not", ("atom", b[i]))
        spec.links.append((effect, ("and" if i % 2 == 0 else "or", (("atom", a[i]), second))))
    spec.constraints = [("EXC", a[1], a[2]), ("REQ", b[1], b[3]), ("EXC", a[3], a[5]),
                        ("XOR", a[4], b[5])]
    spec.restrictions = [(effects[0], effects[1])]
    required = [[c] for c in spec.constraints[:2]]
    x, y, z = rng.sample(conditions, 3)
    required.append([("INC", x, y), ("EXC", y, z)])
    for _ in range(2):
        x, y = rng.sample(conditions, 2)
        required.append([(rng.choice(CONSTRAINT_OPS), x, y)])
    return spec, required


def wide_draft(spec: GraphSpec) -> str:
    """A one-scenario draft that fires the first link: Given a0 and a4, When b0, Then E1."""
    (effect, (_, ((_, a0), (_, b0)))), (_, (_, ((_, a4), _))) = spec.links[0], spec.links[4]
    d = spec.descriptions
    return (f"Feature: Wide graph review\n\n  Scenario: First link fires\n"
            f"    Given {d[a0]}\n    And {d[a4]}\n    When {d[b0]}\n    Then {d[effect]}\n")


# ---------------------------------------------------------------------------
# Synthetic dataset and its mock oracle script

_NOUNS = ("door", "sensor", "invoice", "ticket", "badge", "cart", "coupon", "parcel",
          "route", "shift", "locker", "meter", "valve", "report", "token", "beacon",
          "ledger", "quota", "filter", "panel", "socket", "vault", "trailer", "permit")
_STATES = ("active", "verified", "expired", "pending", "locked", "open", "approved",
           "flagged", "paid", "armed")
_OUTCOMES = ("issued", "archived", "displayed", "refunded", "escalated", "dispatched",
             "suspended", "recorded")
_CATEGORIES = ("Functionality", "Usability", "Reliability", "Performance", "Supportability")
LEAF_KINDS = ("clean", "formal", "modify", "residual")
# clean:formal is 3:1 as in tests/fixtures/dataset/two_projects.json with its
# recorded oracle script; the modify and residual shares are assumed (the
# recording has neither), 10% each, about two per 20-leaf project.
LEAF_WEIGHTS = (6, 2, 1, 1)


def _leaf(rng: random.Random, token: str, kind: str, k: int) -> dict:
    """One leaf feature with k conditions: its atoms, statements, draft text and oracle answers."""
    nouns = rng.sample(_NOUNS, k + 4)
    descriptions = {f"C{i + 1}": f"the {token} {nouns[i]} is {rng.choice(_STATES)}"
                    for i in range(k)}
    n_effects = rng.randint(2, 4)
    for i in range(n_effects):
        descriptions[f"E{i + 1}"] = f"the {token} {nouns[k + i]} is {rng.choice(_OUTCOMES)}"
    spec = GraphSpec(descriptions)
    conditions = spec.conditions
    for effect in spec.effects:
        shape = rng.random()
        if shape < 0.3:
            cause = ("atom", rng.choice(conditions))
        else:
            support = rng.sample(conditions, min(k, rng.randint(2, 3)))
            parts = tuple(("atom", c) for c in support)
            cause = ("and" if shape < 0.7 else "or", parts)
        spec.links.append((effect, cause))
    free = list(conditions)
    if k >= 4 and rng.random() < 0.5:
        a, b = rng.sample(conditions[1:], 2)
        spec.constraints.append((rng.choice(CONSTRAINT_OPS), a, b))
        free = [c for c in conditions if c not in (a, b)]
    if kind in ("modify", "residual"):
        audit = f"E{n_effects + 1}"
        spec.descriptions[audit] = f"the {token} audit trail is written"
        spec.links.append((audit, ("atom", free[0])))
    statements = spec.statements()
    leaf = {"spec": spec, "statements": statements, "kind": kind}
    if kind == "formal":
        leaf["built"] = statements + ["DIR(E1)=E2"]
    elif kind == "modify":
        leaf["modified"] = [s for s in statements if not s.endswith(f"={audit}")]
    leaf["draft"] = _leaf_draft(rng, token, spec)
    return leaf


def _leaf_draft(rng: random.Random, token: str, spec: GraphSpec) -> str:
    """The GenerateGherkin answer of one leaf.

    The recorded dataset's drafts have no step that only BindStep binds; the
    shares here are assumed (a Background gizmo step in 40% of drafts, one in
    50% of scenarios), so that the repeated BindStep request shows in every
    project.
    """
    conditions, effects = spec.conditions, [e for e in spec.effects
                                            if "audit" not in spec.descriptions[e]]
    d = spec.descriptions
    lines = [f"Feature: Feature {token} behaviour", "", "  Narrative:",
             "  As an operator", f"  I want the {token} rules applied",
             "  So that every case is handled", ""]
    if rng.random() < 0.4:
        lines += ["  Background:", f"    Given the {token} gizmo 0 hums", ""]
    for s in range(rng.randint(1, 2)):
        lines.append(f"  Scenario: Path {s + 1} of {token}")
        givens = rng.sample(conditions, rng.randint(0, min(2, len(conditions) - 1)))
        steps = [_polar(d[c], rng.random() < 0.75, "does not hold") for c in givens]
        if rng.random() < 0.5:
            steps.append(f"the {token} gizmo {s + 1} hums")
        for i, text in enumerate(steps):
            lines.append(f"    {'Given' if i == 0 else 'And'} {text}")
        lines.append(f"    When {d[rng.choice(conditions)]}")
        lines.append(f"    Then {d[rng.choice(effects)]}")
        lines.append("")
    return "\n".join(lines)


def pipeline_dataset(rng: random.Random, projects: int, leaves: int) -> tuple[list, dict]:
    """A dataset of `projects` narratives with `leaves` leaf features each.

    Returns the dataset entries and the MockOracle script that answers every
    request the pipeline makes for them. Leaves are of four kinds: clean;
    formal (BuildCEG answers with a formal error, so one ReconstructCEG round
    runs); modify (a No probe answer drives one ModifyCEG round); residual
    (the No answer persists through max_iters). Each leaf has a unique fixed-width token, so every script rule matches
    the requests of exactly one leaf.
    """
    agents: dict[str, dict] = {name: {"rules": []} for name in (
        "FeatureTreeGenerator", "AnalyzeUserBehavior", "AnalyzeSystemBehavior",
        "IdentifyCAndE", "BuildCEG", "ReconstructCEG", "ModifyCEG", "ReasoningIQ",
        "GenerateGherkin", "BindStep", "ClassifyFURPS")}
    agents["ReasoningIQ"]["default"] = {"answer": {
        "verdict": "Yes", "reasoning": "The requirement states this coupling."}}
    agents["Review"] = {"default": {"echo": {"field": "proposed_text", "key": "text"}}}
    agents["BindStep"]["default"] = {"answer": {"atom": "none"}}
    agents["ClassifyFURPS"]["default"] = {"answer": {"category": "Functionality"}}

    def rule(agent: str, needle: str, answer: dict) -> None:
        agents[agent]["rules"].append({"when_contains": needle, "answer": answer})

    dataset = []
    # Exact shares, in seeded order, so that every seed asks for the same
    # amount of work: leaf kinds in LEAF_WEIGHTS proportion, 3-8 conditions
    # in turn.
    total = projects * leaves
    kinds = [kind for kind, weight in zip(LEAF_KINDS, LEAF_WEIGHTS)
             for _ in range(round(total * weight / sum(LEAF_WEIGHTS)))]
    kinds = (kinds + ["clean"] * total)[:total]
    sizes = [3 + i % 6 for i in range(total)]
    rng.shuffle(kinds)
    rng.shuffle(sizes)
    serial = 0
    for p in range(projects):
        pid = f"pj{p:03d}"
        roots = []
        for r in range(rng.randint(2, 3)):
            roots.append({"name": f"Area {pid} {r + 1}", "kano": rng.choice(
                ("must-be", "one-dimensional", "attractive")), "children": []})
        for _ in range(leaves):
            token, kind = f"lf{serial:04d}", kinds[serial]
            leaf = _leaf(rng, token, kind, sizes[serial])
            serial += 1
            spec = leaf["spec"]
            name = f"Feature {token}"
            rng.choice(roots)["children"].append(
                {"name": name, "kano": "must-be", "narrative_span": f"the {token} rules"})
            user = f"If the {token} case arises, the user expects the system to react."
            system = f"When the {token} case arises, the system applies its {token} rules."
            rule("AnalyzeUserBehavior", token, {"user_behavior": user})
            rule("AnalyzeSystemBehavior", token, {"system_behavior": system})
            rule("IdentifyCAndE", token, spec.atoms_payload())
            rule("BuildCEG", token, {"statements": leaf.get("built", leaf["statements"])})
            rule("ReconstructCEG", token, {"statements": leaf["statements"]})
            if kind in ("modify", "residual"):
                rule("ReasoningIQ", f"{token} audit trail",
                     {"verdict": "No", "reasoning": f"The {token} text never mentions an audit."})
                rule("ModifyCEG", token, {"statements": leaf.get("modified", leaf["statements"])})
            rule("GenerateGherkin", token, {"feature_text": leaf["draft"]})
            for j in range(3):
                rule("BindStep", f"{token} gizmo {j} hums",
                     {"atom": rng.choice(spec.conditions), "polarity": "positive"})
            rule("ClassifyFURPS", token, {"category": rng.choice(_CATEGORIES)})
        rule("FeatureTreeGenerator", pid, {"product": f"Product {pid}",
                                           "features": [r for r in roots if r["children"]]})
        dataset.append({"project_id": pid, "features": [],
                        "narrative": f"Product {pid} automates the daily work of its operators."})
    return dataset, {"agents": agents}


# ---------------------------------------------------------------------------
# Feature-file corpus variants

_WORDS = ("customer", "order", "account", "payment", "the", "system", "shows", "a",
          "confirmation", "message", "after", "validation", "completes", "quickly",
          "administrator", "approves", "request", "notification", "is", "sent", "every",
          "pending", "item", "receives", "updated", "status", "and", "report")

# Injected defects: the parser rejects the first group; lint alone flags the second.
PARSE_DEFECTS = ("and-first", "keyword-order", "outline-without-examples",
                 "ragged-examples", "multiline-step", "empty-scenario")
LINT_DEFECTS = ("trailing-whitespace", "indentation", "duplicate-title")


def _sentence(rng: random.Random, low: int, high: int) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(low, high)))


def corpus_variant(rng: random.Random, index: int, defect: str | None) -> str:
    """One feature file with tags, background, outlines and long steps."""
    lines = []
    if rng.random() < 0.5:
        lines.append(f"@generated @set{index % 7}")
    lines += [f"Feature: Generated feature {index}", ""]
    if rng.random() < 0.6:
        lines += ["  Narrative:", "  As a customer", f"  I want {_sentence(rng, 3, 8)}",
                  f"  So that {_sentence(rng, 3, 8)}", ""]
    if rng.random() < 0.4:
        lines += ["  Background:", f"    Given {_sentence(rng, 3, 10)}",
                  f"    And {_sentence(rng, 3, 10)}", ""]
    n_scenarios = rng.randint(2, 5)
    defect_at = rng.randrange(1, n_scenarios)
    for s in range(n_scenarios):
        outline = rng.random() < 0.3
        injected = defect if s == defect_at else None
        if injected in ("outline-without-examples", "ragged-examples"):
            outline = True
        title = f"Case {s + 1 if injected != 'duplicate-title' else 1}"
        if rng.random() < 0.3:
            lines.append(f"  @case{s}")
        lines.append(f"  Scenario{' Outline' if outline else ''}: {title}")
        if injected == "empty-scenario":
            lines.append("")
            continue
        steps = [("Given", _sentence(rng, 3, 12))]
        steps += [("And", _sentence(rng, 3, 12)) for _ in range(rng.randint(0, 2))]
        steps.append(("When", _sentence(rng, 3, 30 if rng.random() < 0.2 else 10)))
        steps.append(("Then", _sentence(rng, 3, 12)))
        steps += [("And", _sentence(rng, 3, 12)) for _ in range(rng.randint(0, 2))]
        if outline:
            steps[0] = ("Given", steps[0][1] + " with <amount> units")
        if injected == "and-first":
            steps[0] = ("And", steps[0][1])
        elif injected == "keyword-order":
            steps.append(("When", _sentence(rng, 3, 6)))
        rendered = [f"    {kw} {text}" for kw, text in steps]
        if injected == "trailing-whitespace":
            rendered[-1] += "  "
        elif injected == "indentation":
            rendered[1] = "  " + rendered[1]
        elif injected == "multiline-step":
            rendered.insert(1, f"      {_sentence(rng, 2, 5)}")
        lines += rendered
        if outline and injected != "outline-without-examples":
            lines += ["    Examples:", "      | amount | label |"]
            for r in range(rng.randint(1, 4)):
                row = f"      | {r + 1} | {rng.choice(_WORDS)} |"
                if injected == "ragged-examples" and r == 0:
                    row = f"      | {r + 1} |"
                lines.append(row)
        lines.append("")
    return "\n".join(lines)


def corpus_variants(rng: random.Random, count: int,
                    malformed_share: float = 0.2) -> list[tuple[str, str, str | None]]:
    """`count` (name, text, defect) triples; about `malformed_share` carry a defect.

    The fixture corpus has no malformed file, so the share is assumed; at the
    benchmark's 20% of 150 variants each of the nine defect kinds turns up
    about three times.
    """
    out = []
    for i in range(count):
        defect = None
        if rng.random() < malformed_share:
            defect = rng.choice(PARSE_DEFECTS + LINT_DEFECTS)
        out.append((f"variant{i:04d}.feature", corpus_variant(rng, i, defect), defect))
    return out
