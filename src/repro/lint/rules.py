"""The rule catalog: each PL rule encodes one invariant the paper's
guarantees (or the repo's bit-identity contracts) depend on.

Every rule is a class with an ``id``, a one-line ``summary``, a
``rationale`` tied to the guarantee it protects (rendered by
``poiagg check --list-rules`` and docs/static-analysis.md), and a
``check(ctx)`` method yielding :class:`~repro.lint.engine.Violation`
objects.  Rules see one file at a time through a
:class:`~repro.lint.engine.FileContext`; cross-file reasoning is out of
scope by design — everything here must stay fast enough to run on every
commit.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Sequence

from repro.lint.engine import FileContext, Violation

__all__ = [
    "ANALYSIS_FAMILIES",
    "DataflowRule",
    "Rule",
    "RULES",
]


class Rule:
    """Base class: subclasses set the metadata and implement ``check``."""

    id: str = ""
    name: str = ""
    summary: str = ""
    rationale: str = ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.id,
            message=message,
        )


#: numpy.random constructors that are fine to call (they build seedable
#: generator objects rather than consuming hidden global state).
_GENERATOR_CTORS = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "MT19937",
    "SFC64",
}


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


class UnseededRandomness(Rule):
    """PL001 — every random draw must come from an explicit seeded Generator."""

    id = "PL001"
    name = "unseeded-randomness"
    summary = "no unseeded or global-state randomness outside tests"
    rationale = (
        "The paper's attacks, defenses, and the Gaussian/planar-Laplace "
        "mechanisms are only reproducible under seed discipline: every "
        "stochastic component threads an explicit numpy Generator derived "
        "from the experiment seed (repro.core.rng). The stdlib random "
        "module, legacy np.random.* module functions, and default_rng() "
        "without a seed all draw from hidden or OS state and silently "
        "break run-to-run and resume bit-identity."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.is_test:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.imports.resolve(node.func)
            if target is None:
                continue
            if target == "random" or target.startswith("random."):
                yield self.violation(
                    ctx,
                    node,
                    f"stdlib `{target}` draws from hidden global state; "
                    "thread a seeded np.random.Generator "
                    "(repro.core.rng.derive_rng) instead",
                )
            elif target.startswith("numpy.random."):
                fn = target.rsplit(".", 1)[1]
                if fn not in _GENERATOR_CTORS:
                    yield self.violation(
                        ctx,
                        node,
                        f"legacy `numpy.random.{fn}` consumes the global "
                        "numpy stream; call the method on an explicit "
                        "seeded Generator instead",
                    )
                elif fn == "default_rng":
                    unseeded = (not node.args and not node.keywords) or (
                        len(node.args) == 1 and _is_none(node.args[0])
                    )
                    if unseeded:
                        yield self.violation(
                            ctx,
                            node,
                            "default_rng() without a seed draws OS entropy; "
                            "pass a seed or derive via repro.core.rng",
                        )
                    elif ctx.is_library and ctx.module != "repro.core.rng":
                        yield self.violation(
                            ctx,
                            node,
                            "library code constructs default_rng directly; "
                            "derive generators via repro.core.rng "
                            "(as_generator / derive_rng / spawn_rngs) so "
                            "every stream descends from the experiment seed",
                        )


#: DP mechanism entry points whose invocation spends privacy budget.
_MECHANISMS = {
    "repro.dp.mechanisms.gaussian_mechanism",
    "repro.dp.mechanisms.laplace_mechanism",
    "repro.dp.gaussian_mechanism",
    "repro.dp.laplace_mechanism",
    "repro.dp.planar_laplace.PlanarLaplace",
    "repro.dp.PlanarLaplace",
}


class AccountantBypass(Rule):
    """PL002 — DP mechanisms are reachable only through defense-layer classes."""

    id = "PL002"
    name = "accountant-bypass"
    summary = "DP mechanism calls must stay inside the accountant-guarded defense layer"
    rationale = (
        "Theorem 4's (epsilon, delta) claim holds under sequential "
        "composition tracked by repro.dp.accountant.PrivacyAccountant; "
        "the serve ledger (repro.serve.ledger.BudgetLedger) meters every "
        "served release with its user's accountant before the defense "
        "layer runs it. A mechanism invoked from attacks/, experiments/, "
        "or examples/ bypasses the ledger, so the composed guarantee "
        "silently stops holding (Primault et al. catalogue exactly this "
        "failure mode in deployed location-privacy pipelines)."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.is_test or ctx.module.startswith("repro.dp"):
            return
        in_defense = ctx.module.startswith("repro.defense")
        yield from self._scan(ctx, ctx.tree, in_defense=in_defense, in_class=False)

    def _scan(
        self, ctx: FileContext, node: ast.AST, *, in_defense: bool, in_class: bool
    ) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            entering_class = in_class or isinstance(child, ast.ClassDef)
            if isinstance(child, ast.Call):
                target = ctx.imports.resolve(child.func)
                if target in _MECHANISMS:
                    if not in_defense:
                        yield self.violation(
                            ctx,
                            child,
                            f"`{target.rsplit('.', 1)[1]}` invoked outside the "
                            "defense layer; route the release through a "
                            "repro.defense mechanism so PrivacyAccountant.spend "
                            "sees it",
                        )
                    elif not in_class:
                        yield self.violation(
                            ctx,
                            child,
                            "raw mechanism call in defense module scope; keep "
                            "mechanism invocations inside Defense classes, "
                            "the release path the serve ledger meters",
                        )
            yield from self._scan(
                ctx, child, in_defense=in_defense, in_class=entering_class
            )


#: Methods producing int32 frequency matrices under the bit-identity contract.
_FREQ_PRODUCERS = {"anchor_freqs", "freq_batch"}

#: astype targets that keep (or deliberately leave) the int32 contract.
_SAFE_DTYPES = {"float", "int32", "float32", "float64", "single", "double", "bool_"}


def _dtype_label(node: ast.expr) -> str | None:
    """The spelled dtype of an ``astype`` argument, lowercased, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.lower()
    if isinstance(node, ast.Name):
        return node.id.lower()
    if isinstance(node, ast.Attribute):
        return node.attr.lower()
    return None


def _is_square(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 2
    )


def _is_sum_of_squares(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and _is_square(node.left)
        and _is_square(node.right)
    )


class FreqDtypeDiscipline(Rule):
    """PL003 — int32 Freq matrices and np.hypot distance comparisons."""

    id = "PL003"
    name = "freq-dtype-discipline"
    summary = "no widening casts on Freq matrices, no `**2` distance comparisons"
    rationale = (
        "The batch Freq engine's bit-identity guarantee (batch == scalar, "
        "asserted by the property suite) rests on int32 anchor/frequency "
        "matrices and on comparing distances with np.hypot exactly as the "
        "scalar path does. A widening astype(int64) doubles the matrix "
        "footprint and desynchronises overflow behaviour; a dx**2 + dy**2 "
        "comparison rounds differently from np.hypot in the last ulp, "
        "which is enough to flip a boundary anchor in or out of a disk."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.is_test:
            return
        freq_names: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                value = node.value
                if (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Attribute)
                    and value.func.attr in _FREQ_PRODUCERS
                ):
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            freq_names.add(tgt.id)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_astype(ctx, node, freq_names)
                yield from self._check_sqrt(ctx, node)
            elif isinstance(node, ast.Compare):
                for side in [node.left, *node.comparators]:
                    if _is_sum_of_squares(side):
                        yield self.violation(
                            ctx,
                            node,
                            "distance compared as a sum of squares; use "
                            "np.hypot(dx, dy) so batch and scalar paths "
                            "round identically",
                        )
                        break

    def _check_astype(
        self, ctx: FileContext, node: ast.Call, freq_names: set[str]
    ) -> Iterator[Violation]:
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr == "astype" and node.args):
            return
        receiver = func.value
        from_freq = (isinstance(receiver, ast.Name) and receiver.id in freq_names) or (
            isinstance(receiver, ast.Call)
            and isinstance(receiver.func, ast.Attribute)
            and receiver.func.attr in _FREQ_PRODUCERS
        )
        if not from_freq:
            return
        dtype = _dtype_label(node.args[0])
        if dtype is not None and dtype not in _SAFE_DTYPES:
            yield self.violation(
                ctx,
                node,
                f"Freq matrix cast to `{dtype}`; the batch engine's "
                "bit-identity contract is int32 (cast to float explicitly "
                "only where the math needs it)",
            )

    def _check_sqrt(self, ctx: FileContext, node: ast.Call) -> Iterator[Violation]:
        target = ctx.imports.resolve(node.func)
        if target in {"numpy.sqrt", "math.sqrt"} and node.args:
            if _is_sum_of_squares(node.args[0]):
                yield self.violation(
                    ctx,
                    node,
                    "sqrt(dx**2 + dy**2) rounds differently from np.hypot; "
                    "use np.hypot for distances under the bit-identity "
                    "contract",
                )


#: Call shapes that hand a function to another process.
_SUBMIT_ATTRS = {"submit", "map", "apply_async", "imap", "imap_unordered"}
_SINK_FUNCS = {
    "repro.experiments.parallel.run_sharded",
    "repro.experiments.supervisor.supervise_shards",
}


class NonPicklableShardWorker(Rule):
    """PL004 — shard workers must be module-level, closure-free functions."""

    id = "PL004"
    name = "shard-worker-picklable"
    summary = "workers handed to pools/supervisors must be module-level functions"
    rationale = (
        "Crash isolation re-executes a shard on a fresh worker process: the "
        "supervisor pickles the entry point, SIGKILLs hung workers, and "
        "replays retried shards from scratch. Lambdas and nested functions "
        "either fail to pickle or smuggle closure state that a replacement "
        "process cannot reconstruct, so a retry would diverge from the "
        "original attempt and void shard-level resume bit-identity."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.is_test:
            return
        yield from self._scan(ctx, ctx.tree, nested_defs=set())

    def _scan(
        self, ctx: FileContext, node: ast.AST, nested_defs: set[str]
    ) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            child_nested = nested_defs
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Defs nested inside this function are non-module-level.
                child_nested = nested_defs | {
                    stmt.name
                    for stmt in ast.walk(child)
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt is not child
                }
            if isinstance(child, ast.Call):
                yield from self._check_sink(ctx, child, nested_defs)
            yield from self._scan(ctx, child, child_nested)

    def _check_sink(
        self, ctx: FileContext, node: ast.Call, nested_defs: set[str]
    ) -> Iterator[Violation]:
        func = node.func
        is_sink = (
            isinstance(func, ast.Attribute) and func.attr in _SUBMIT_ATTRS
        ) or ctx.imports.resolve(func) in _SINK_FUNCS
        if not is_sink:
            return
        candidates = list(node.args) + [kw.value for kw in node.keywords]
        for arg in candidates:
            # functools.partial is transparent: check what it wraps.
            if isinstance(arg, ast.Call) and ctx.imports.resolve(arg.func) in {
                "functools.partial"
            }:
                candidates.extend(arg.args)
                continue
            if isinstance(arg, ast.Lambda):
                yield self.violation(
                    ctx,
                    node,
                    "lambda passed to a process pool/supervisor; shard "
                    "workers must be module-level functions (picklable and "
                    "re-executable on a fresh process)",
                )
            elif isinstance(arg, ast.Name) and arg.id in nested_defs:
                yield self.violation(
                    ctx,
                    node,
                    f"worker `{arg.id}` is defined inside a function; move "
                    "it to module level so crash retries can re-import and "
                    "re-execute it",
                )


_WALL_CLOCK = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
    "datetime.date.today": "date.today()",
    "os.urandom": "os.urandom()",
    "uuid.uuid4": "uuid.uuid4()",
    "secrets.token_bytes": "secrets.token_bytes()",
    "secrets.token_hex": "secrets.token_hex()",
    "secrets.randbits": "secrets.randbits()",
}


class WallClockInExperimentPath(Rule):
    """PL005 — no wall-clock or ambient entropy in checkpointed library code."""

    id = "PL005"
    name = "wall-clock-entropy"
    summary = "library code must not read wall-clock time or ambient entropy"
    rationale = (
        "Checkpoint resume promises bit-identical rows to an uninterrupted "
        "run; any value derived from time.time(), datetime.now(), or OS "
        "entropy differs between the original attempt and the resumed one. "
        "Timing belongs to the Clock abstraction (repro.core.clock) or to "
        "the runner/supervisor provenance layer, which records telemetry "
        "outside the checkpointed payload and carries an explicit per-file "
        "suppression saying so."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.is_library or ctx.module == "repro.core.clock":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.imports.resolve(node.func)
            if target in _WALL_CLOCK:
                yield self.violation(
                    ctx,
                    node,
                    f"{_WALL_CLOCK[target]} in library code breaks resume "
                    "bit-identity; take a Clock (repro.core.clock) or an "
                    "explicit timestamp parameter",
                )


_SHIMMED_ATTACKS = {
    "repro.attacks.region.RegionAttack": "RegionAttack",
    "repro.attacks.RegionAttack": "RegionAttack",
    "repro.attacks.fine_grained.FineGrainedAttack": "FineGrainedAttack",
    "repro.attacks.FineGrainedAttack": "FineGrainedAttack",
}


class DeprecatedPositionalShim(Rule):
    """PL006 — no legacy `run(freq_vector, radius)` calls in first-party code."""

    id = "PL006"
    name = "deprecated-attack-shim"
    summary = "call attacks with a Release, not the positional (freq, radius) shim"
    rationale = (
        "The v1 Attack API takes a frozen Release (frequency vector + "
        "radius + optional ground truth); the positional (freq_vector, "
        "radius) spelling was removed with its deprecation shim and now "
        "raises TypeError at runtime. Linting catches the stale spelling "
        "before it ships, and keeps first-party code on the Release path "
        "that carries the metadata (true_location, timestamp) evaluation "
        "and tracking rely on."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.is_test:
            return
        attack_vars: dict[str, str] = {}
        literals: dict[str, ast.expr] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                cls = self._attack_class(ctx, node.value)
                for tgt in node.targets:
                    if isinstance(tgt, ast.Name):
                        if cls is not None:
                            attack_vars[tgt.id] = cls
                        elif isinstance(node.value, (ast.Dict, ast.List, ast.Tuple)):
                            literals[tgt.id] = node.value
        # Loop variables bound to a literal of attacks, e.g.
        # ``for name, attack in {"a": RegionAttack(db)}.items()``.
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For):
                bound = self._loop_binding(ctx, node, literals)
                if bound is not None:
                    attack_vars[bound[0]] = bound[1]
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr != "run":
                continue
            receiver = node.func.value
            cls: str | None = None
            if isinstance(receiver, ast.Name):
                cls = attack_vars.get(receiver.id)
            elif isinstance(receiver, ast.Call):
                cls = _SHIMMED_ATTACKS.get(ctx.imports.resolve(receiver.func) or "")
            if cls is None:
                continue
            legacy = len(node.args) >= 2 or any(
                kw.arg == "radius" for kw in node.keywords
            )
            if legacy:
                yield self.violation(
                    ctx,
                    node,
                    f"{cls}.run(freq_vector, radius) is the removed "
                    "pre-v1 positional spelling; pass repro.attacks."
                    "Release(freq_vector, radius) instead",
                )

    @staticmethod
    def _attack_class(ctx: FileContext, node: "ast.expr | None") -> "str | None":
        """The attack class *node* constructs, if it is such a constructor call."""
        if not isinstance(node, ast.Call):
            return None
        return _SHIMMED_ATTACKS.get(ctx.imports.resolve(node.func) or "")

    def _loop_binding(
        self, ctx: FileContext, loop: ast.For, literals: dict[str, ast.expr]
    ) -> "tuple[str, str] | None":
        """``(variable, class)`` when *loop* iterates a literal of attack constructors.

        Covers ``.items()`` and ``.values()`` of a dict literal and direct
        iteration over a list or tuple literal, written inline or bound to
        a name first.
        """
        source, target = loop.iter, loop.target
        method: "str | None" = None
        if isinstance(source, ast.Call) and isinstance(source.func, ast.Attribute):
            method, source = source.func.attr, source.func.value
        if isinstance(source, ast.Name):
            source = literals.get(source.id, source)
        elements: Sequence[ast.expr | None]
        if isinstance(source, ast.Dict) and method in ("items", "values"):
            elements = source.values
            if method == "items":
                if not (isinstance(target, ast.Tuple) and len(target.elts) == 2):
                    return None
                target = target.elts[1]
        elif isinstance(source, (ast.List, ast.Tuple)) and method is None:
            elements = source.elts
        else:
            return None
        classes = [self._attack_class(ctx, e) for e in elements]
        first = classes[0] if classes else None
        if first is None or None in classes or not isinstance(target, ast.Name):
            return None
        return target.id, first


#: Role keywords marking a write as crash-safety-critical: files other
#: code resumes from or trusts (caches, checkpoints, quarantine sidecars).
_ROLE_KEYWORDS = ("cache", "checkpoint", "quarantine")

#: Path methods that replace a file's content wholesale.
_WRITE_ATTRS = {"write_text", "write_bytes"}

#: Modes that (re)write content.  Append is deliberately out of scope:
#: append-only event logs are incremental by design and cannot be
#: committed by rename.
_WRITE_MODES = ("w", "x")


class NonAtomicRoleWrite(Rule):
    """PL007 — cache/checkpoint/quarantine writes must be atomic."""

    id = "PL007"
    name = "atomic-role-write"
    summary = "cache/checkpoint/quarantine files must be written via temp-file + rename"
    rationale = (
        "Crash-safe resume and the dataset cache's integrity guarantee "
        "both rest on readers never observing a torn file: checkpoints "
        "are trusted on re-run, cache entries are checksummed, quarantine "
        "sidecars account for diverted records. A direct write_text/open "
        "to such a file can be interrupted half-written and then be "
        "consumed as truth. Route these writes through "
        "repro.ingest.atomic (atomic_writer / atomic_write_text / "
        "atomic_write_bytes) or pair them with os.replace in the same "
        "function, as runner.write_checkpoint does."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        # The atomic helpers themselves necessarily open temp files.
        if ctx.is_test or ctx.module == "repro.ingest.atomic":
            return
        yield from self._scan(ctx, ctx.tree, fn_names=(), commits=False)

    def _scan(
        self, ctx: FileContext, node: ast.AST, fn_names: tuple[str, ...], commits: bool
    ) -> Iterator[Violation]:
        for child in ast.iter_child_nodes(node):
            child_names, child_commits = fn_names, commits
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_names = fn_names + (child.name,)
                child_commits = commits or self._commits(ctx, child)
            elif isinstance(child, ast.Call):
                yield from self._check_write(ctx, child, fn_names, commits)
            yield from self._scan(ctx, child, child_names, child_commits)

    def _commits(self, ctx: FileContext, fn: ast.AST) -> bool:
        """Does *fn* rename into place or delegate to an atomic helper?"""
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.imports.resolve(node.func)
            if target == "os.replace":
                return True
            if target is not None:
                name = target.rsplit(".", 1)[-1]
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            if name == "atomic_writer" or name.startswith("atomic_write"):
                return True
        return False

    def _check_write(
        self,
        ctx: FileContext,
        node: ast.Call,
        fn_names: tuple[str, ...],
        commits: bool,
    ) -> Iterator[Violation]:
        target = self._write_target(node)
        if target is None or commits:
            return
        scope = " ".join(fn_names).lower()
        spelled = ast.unparse(target).lower()
        matched = [kw for kw in _ROLE_KEYWORDS if kw in scope or kw in spelled]
        if not matched:
            return
        yield self.violation(
            ctx,
            node,
            f"direct write to a {matched[0]}-role file; a crash here leaves "
            "a torn file that resume/integrity checks will trust — write "
            "via repro.ingest.atomic or os.replace a temp file into place",
        )

    def _write_target(self, node: ast.Call) -> "ast.expr | None":
        """The path expression a call writes to, or None for non-writes."""
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _WRITE_ATTRS:
            return func.value
        mode: "str | None" = None
        if isinstance(func, ast.Name) and func.id == "open":
            mode = self._mode_of(node, mode_pos=1)
            receiver = node.args[0] if node.args else None
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            mode = self._mode_of(node, mode_pos=0)
            receiver = func.value
        else:
            return None
        if mode is None or not any(flag in mode for flag in _WRITE_MODES):
            return None
        return receiver

    @staticmethod
    def _mode_of(node: ast.Call, mode_pos: int) -> "str | None":
        mode_arg: "ast.expr | None" = None
        if len(node.args) > mode_pos:
            mode_arg = node.args[mode_pos]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode_arg = kw.value
        if mode_arg is None:
            return "r"  # open() default: a read, not a write
        if isinstance(mode_arg, ast.Constant) and isinstance(mode_arg.value, str):
            return mode_arg.value
        return None  # dynamic mode: cannot prove a write


#: Method names that block forever when called without arguments
#: (queue.Queue.get, Event/Condition.wait, Thread.join, socket/pipe recv).
#: Calls with positional arguments are out of scope: ``d.get(key)`` and
#: ``sep.join(parts)`` are not blocking calls, and a positional deadline
#: (``q.get(True, 0.1)``) is already bounded.
_BLOCKING_ATTRS = ("get", "wait", "join", "recv", "sleep")

#: Stdlib request handlers whose socket reads block with no timeout
#: unless the class sets a ``timeout`` attribute.
_STREAM_HANDLERS = {
    "http.server.BaseHTTPRequestHandler",
    "socketserver.StreamRequestHandler",
}


class UnboundedServeBlocking(Rule):
    """PL008 — serve-path blocking calls must carry a timeout."""

    id = "PL008"
    name = "unbounded-serve-blocking"
    summary = "serve handlers/dispatchers must not block without a timeout"
    rationale = (
        "The serve layer's liveness guarantees — shutdown always "
        "completes, the shed ladder can always intervene, a hung worker "
        "is indistinguishable from a crashed one only until its deadline "
        "— all assume no thread ever parks forever. A bare queue.get(), "
        "Event.wait(), Thread.join(), or recv() waits unconditionally: "
        "one such call in a handler or dispatcher loop turns a transient "
        "stall into a permanent one that no deadline, retry, or drain "
        "can reach. Every blocking call in repro.serve must pass a "
        "timeout (the idle poll interval is the conventional bound), and "
        "every stream request handler must set a `timeout` class "
        "attribute: its socket reads otherwise wait forever on a client "
        "that never sends the body it promised."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.is_test or not ctx.module.startswith("repro.serve"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and self._unbounded_handler(ctx, node):
                yield self.violation(
                    ctx,
                    node,
                    f"request handler `{node.name}` sets no `timeout`, so its "
                    "socket reads can block a server thread forever on a "
                    "silent client; set a `timeout` class attribute",
                )
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr not in _BLOCKING_ATTRS:
                continue
            if node.args:
                continue  # a positional arg means keyed lookup or a bound
            if any(kw.arg == "timeout" for kw in node.keywords):
                continue
            yield self.violation(
                ctx,
                node,
                f".{node.func.attr}() without a timeout can block this "
                "serve thread forever; pass timeout=... so shutdown, "
                "deadlines, and the shed ladder can intervene",
            )

    @staticmethod
    def _unbounded_handler(ctx: FileContext, node: ast.ClassDef) -> bool:
        """A direct stdlib stream-handler subclass with no non-None ``timeout``."""
        if not any(ctx.imports.resolve(base) in _STREAM_HANDLERS for base in node.bases):
            return False
        for stmt in node.body:
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            else:
                continue
            if any(isinstance(t, ast.Name) and t.id == "timeout" for t in targets):
                return _is_none(value)
        return True


#: The dotted names a direct SharedMemory construction resolves to.
_SHM_CTORS = {
    "multiprocessing.shared_memory.SharedMemory",
    "shared_memory.SharedMemory",
}


class UnmanagedSharedMemory(Rule):
    """PL009 — first-party code creates and deletes no shared-memory segments."""

    id = "PL009"
    name = "unmanaged-shared-memory"
    summary = "first-party code must not create or delete shared-memory segments"
    rationale = (
        "Nothing in this project shares memory across processes: a shard "
        "worker builds its own city from the seed, or inherits it under "
        "fork, so no module owns a segment. A POSIX segment is a kernel "
        "object that outlives a SIGKILLed creator unless someone unlinks "
        "it, and unlinking or deleting /dev/shm files destroys segments "
        "that other processes may still map. A stray SharedMemory(...) "
        "constructor, .unlink() on a segment, or /dev/shm delete therefore "
        "brings back the leak and double-unlink races without the "
        "ownership contract that would close them. Hand workers their "
        "inputs as arguments, or let them rebuild them."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.is_test:
            return
        shm_vars: set[str] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if ctx.imports.resolve(node.value.func) in _SHM_CTORS:
                    for tgt in node.targets:
                        if isinstance(tgt, ast.Name):
                            shm_vars.add(tgt.id)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.imports.resolve(node.func) in _SHM_CTORS:
                yield self.violation(
                    ctx,
                    node,
                    "SharedMemory(...) creates or attaches a segment no "
                    "module owns; pass workers their inputs or let them "
                    "rebuild them instead",
                )
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr == "unlink":
                receiver = node.func.value
                owned = (
                    isinstance(receiver, ast.Name) and receiver.id in shm_vars
                ) or (
                    isinstance(receiver, ast.Call)
                    and ctx.imports.resolve(receiver.func) in _SHM_CTORS
                )
                if owned:
                    yield self.violation(
                        ctx,
                        node,
                        ".unlink() on a shared-memory segment destroys it "
                        "for every process that maps it; first-party code "
                        "owns no segments",
                    )
                    continue
            if self._deletes_dev_shm(ctx, node):
                yield self.violation(
                    ctx,
                    node,
                    "deleting files under /dev/shm destroys live shared "
                    "segments, which first-party code does not own",
                )

    @staticmethod
    def _deletes_dev_shm(ctx: FileContext, node: ast.Call) -> bool:
        """os.unlink/os.remove("/dev/shm/...") or Path("/dev/shm/...").unlink().

        Only provable literals are flagged: a dynamic path may be
        anything, and Path.unlink on non-/dev/shm paths is everyday code.
        """
        if ctx.imports.resolve(node.func) in ("os.unlink", "os.remove"):
            scan: ast.AST | None = node.args[0] if node.args else None
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "unlink":
            scan = node.func.value
        else:
            return False
        if scan is None:
            return False
        return any(
            isinstance(part, ast.Constant)
            and isinstance(part.value, str)
            and part.value.startswith("/dev/shm")
            for part in ast.walk(scan)
        )


#: numpy allocation constructors whose shape arguments PL010 inspects.
_ALLOC_FNS = {"numpy.zeros", "numpy.empty", "numpy.ones", "numpy.full"}

#: Names that key a dimension on the enrolled-client population.
_CLIENT_COUNT_NAMES = {"n_clients", "n_users", "n_enrolled", "enrolled"}


class ClientKeyedAllocation(Rule):
    """PL010 — federated accumulators are config-bounded, never client-bounded."""

    id = "PL010"
    name = "client-keyed-allocation"
    summary = "repro.federated allocations must not scale with client count"
    rationale = (
        "The federated backend's memory contract is that aggregate-side "
        "working memory is bounded by the *config* — the grid, the type "
        "vocabulary, and chunk_clients — and never by the enrolled "
        "population, so a 10^6-client round fits the same memory_budget "
        "as a 10^3-client one (asserted by the bench's peak-RSS check). "
        "One np.zeros((n_clients, ...)) materializes per-client state, "
        "silently reintroduces the O(users x types) blow-up the "
        "streaming merger exists to avoid, and only fails in production "
        "at population scale. Fold contributions through the chunked "
        "streaming path instead."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.is_test or not ctx.module.startswith("repro.federated"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if ctx.imports.resolve(node.func) not in _ALLOC_FNS:
                continue
            shape = node.args[0] if node.args else None
            if shape is None:
                shape = next(
                    (kw.value for kw in node.keywords if kw.arg == "shape"), None
                )
            if shape is None:
                continue
            culprit = self._client_keyed(shape)
            if culprit is not None:
                yield self.violation(
                    ctx,
                    node,
                    f"allocation shaped on the client population ({culprit}) "
                    "breaks the memory-budget contract; accumulators must be "
                    "bounded by the grid/vocabulary and contributions folded "
                    "in chunk_clients-sized chunks",
                )

    @staticmethod
    def _client_keyed(shape: ast.expr) -> "str | None":
        """The client-count expression a shape depends on, if any."""
        for part in ast.walk(shape):
            if isinstance(part, ast.Name) and part.id in _CLIENT_COUNT_NAMES:
                return part.id
            if isinstance(part, ast.Attribute) and part.attr in _CLIENT_COUNT_NAMES:
                return part.attr
            if (
                isinstance(part, ast.Call)
                and isinstance(part.func, ast.Name)
                and part.func.id == "len"
                and part.args
            ):
                for sub in ast.walk(part.args[0]):
                    name = None
                    if isinstance(sub, ast.Name):
                        name = sub.id
                    elif isinstance(sub, ast.Attribute):
                        name = sub.attr
                    if name is not None and "client" in name:
                        return f"len({name})"
        return None


#: The os-level durable-I/O primitives that bypass the injectable VFS.
_VFS_PRIMITIVES = ("os.open", "os.write", "os.fsync", "os.replace")


class UnroutedDurableIO(Rule):
    """PL015 — durable I/O primitives must route through repro.core.vfs."""

    id = "PL015"
    name = "vfs-routing"
    summary = "os.open/os.write/os.fsync/os.replace must route through repro.core.vfs"
    rationale = (
        "Every durability claim in this repo is only as tested as the "
        "fault layer can see: the disk-fault plans, crash-point sweeps, "
        "and chaos suites all inject through repro.core.vfs, so a writer "
        "calling os.open/os.write/os.fsync/os.replace directly is "
        "invisible to them — its commit steps are never enumerated, its "
        "ENOSPC path never exercised, and a green sweep proves nothing "
        "about it. Route durable I/O through get_vfs() (or the "
        "repro.ingest.atomic helpers, which already do); only "
        "repro.core.vfs itself may touch the primitives."
    )

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        # The VFS is the sanctioned owner of the primitives.
        if ctx.is_test or ctx.module == "repro.core.vfs":
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.imports.resolve(node.func)
            if target not in _VFS_PRIMITIVES:
                continue
            short = target.rsplit(".", 1)[-1]
            yield self.violation(
                ctx,
                node,
                f"direct {target} is invisible to the injectable fault "
                f"layer — crash sweeps and disk-chaos plans cannot reach "
                f"it; call get_vfs().{short}(...) (repro.core.vfs) or a "
                "repro.ingest.atomic helper instead",
            )


class DataflowRule(Rule):
    """Base for the project-wide analyses (PL011–PL014).

    These rules need the whole-project call graph, so their logic lives
    in :mod:`repro.lint.dataflow` / :mod:`repro.lint.taint` and runs
    only when ``poiagg check --analysis`` requests the family.  The
    per-file ``check`` is a no-op by design: a single file cannot prove
    or refute a cross-module property, and silently half-checking it
    would teach people to trust a green that means nothing.
    """

    family: str = ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        return iter(())


class PrivacyTaintLeak(DataflowRule):
    """PL011 — raw aggregates must not reach a release sink unsanitized."""

    id = "PL011"
    name = "privacy-taint-leak"
    family = "taint"
    summary = "no source→sink dataflow path without a defense sanitizer (--analysis taint)"
    rationale = (
        "The paper's defense contract is structural: every value derived "
        "from a raw per-user frequency aggregate (POIDatabase.freq*/"
        "anchor_freqs, federated contribution batches) must pass through "
        "a defense mechanism before it crosses a release boundary — HTTP "
        "response bodies, journals/WALs, checkpoints, artifacts, job "
        "results. Membership-inference (Pyrgelis et al.) and "
        "reconstruction attacks (Buchholz et al.) exploit exactly the "
        "paths where that fails. The taint pass tracks source→sink flows "
        "across module boundaries via call-graph summaries; scalar "
        "aggregations (len, comparisons) deliberately kill taint."
    )


class SkippableSpend(DataflowRule):
    """PL012 — accountant spends must not be skippable on exception edges."""

    id = "PL012"
    name = "skippable-spend"
    family = "taint"
    summary = "no swallowed exception may skip a spend while the release proceeds (--analysis taint)"
    rationale = (
        "The (epsilon, delta) ledger is only sound if a refused or failed "
        "spend stops the release. A try/except that swallows the "
        "accountant's exception and falls through to the mechanism call "
        "releases unmetered exactly when the budget ran out — the worst "
        "possible time. The pass flags handlers that neither re-raise "
        "nor divert control while a sanitizer call or value return "
        "follows the try block."
    )


class LockDiscipline(DataflowRule):
    """PL013 — no blocking under a lock; no lock-order cycles."""

    id = "PL013"
    name = "lock-discipline"
    family = "locks"
    summary = "no blocking while holding a lock, no lock-order cycles (--analysis locks)"
    rationale = (
        "The serve layer's degrade-never-hang guarantee and the "
        "federated supervisor's drain deadlines assume no thread parks "
        "while holding a lock other threads need: the shed ladder, "
        "status endpoint, and shutdown path all contend for the same "
        "handful of locks. The pass tracks which locks are held at every "
        "call site, follows call edges to transitively-blocking work "
        "(unbounded get/wait/join, sleeps, fsync), flags same-lock "
        "reacquisition (threading.Lock self-deadlocks), and reports "
        "cycles in the acquired-while-holding graph. Subsumes PL008's "
        "per-line heuristic with path sensitivity."
    )


class CommitProtocol(DataflowRule):
    """PL014 — durable writers must follow the commit orderings."""

    id = "PL014"
    name = "commit-protocol"
    family = "commit"
    summary = "fsync-before-rename, payload-first/manifest-last, durable WAL appends (--analysis commit)"
    rationale = (
        "Crash safety here is an *ordering* property, not a "
        "call-presence one (PL007 checks presence): os.replace without "
        "a prior fsync publishes a file whose bytes can still vanish; "
        "a manifest written before its payload vouches for data that is "
        "not there; a WAL append that is never fsync'd can acknowledge "
        "a spend that power loss erases; a write to the temp path after "
        "its rename corrupts the committed file. The pass orders each "
        "function's write/flush/fsync/replace events, crediting "
        "delegated fsyncs (repro.ingest.atomic) through the call graph."
    )


RULES: tuple[Rule, ...] = (
    UnseededRandomness(),
    AccountantBypass(),
    FreqDtypeDiscipline(),
    NonPicklableShardWorker(),
    WallClockInExperimentPath(),
    DeprecatedPositionalShim(),
    NonAtomicRoleWrite(),
    UnboundedServeBlocking(),
    UnmanagedSharedMemory(),
    ClientKeyedAllocation(),
    UnroutedDurableIO(),
    PrivacyTaintLeak(),
    SkippableSpend(),
    LockDiscipline(),
    CommitProtocol(),
)

#: The dataflow analysis families ``--analysis`` selects.
ANALYSIS_FAMILIES: tuple[str, ...] = ("taint", "locks", "commit")
