"""Small symbolic expression engine for state-space vector fields.

Node kinds: constants, state variables z1..zn, sums, products,
quotients, integer powers, and sin/cos/tan.  Secants are spelled as
quotients (1/cos), and no trigonometric identities are applied
anywhere: simplification is limited to structural, value-preserving
rewrites (constant folding, dropped zeros and ones, flattening).

Nodes are immutable and content-interned in a module-level table, so
structurally equal expressions are the same object and derivative and
evaluation caches key on node identity.  The table is written with
dict.setdefault only, which keeps interning race-free under the
CPython GIL; heavy concurrent construction from many threads is safe
but will serialize.

Variables are one-based in the textual form ("z1" is state 0 of the
evaluation vector) to match the usual state-space notation.
"""

from __future__ import annotations

import itertools
import math
import operator

from fliess.errors import EvaluationError

_TABLE = {}
_IDS = itertools.count()

CONST, VAR, ADD, MUL, DIV, POW, SIN, COS, TAN = (
    "const", "var", "add", "mul", "div", "pow", "sin", "cos", "tan",
)
# kinds as integers for the sort key: the hash of a string is salted
# per process (PYTHONHASHSEED), the hash of an int or float is not
_CODES = {k: c for c, k in enumerate((CONST, VAR, ADD, MUL, DIV, POW, SIN, COS, TAN))}


class Expr:
    """Interned immutable expression node; build through the module constructors.

    ``key`` orders the arguments of sums and products.  It depends on
    the node's structure only, never on what the process built before:
    a hash of the kind's code, the value and the arguments' hashes, then
    the code, the value and the arguments themselves, so two nodes whose
    hashes collide still compare by structure.
    """

    __slots__ = ("kind", "value", "args", "_id", "key")

    def __init__(self, kind, value, args, _id):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "_id", _id)
        code = _CODES[kind]
        value = 0 if value is None else value  # hash(None) follows its address
        digest = hash((code, value) + tuple(a.key[0] for a in args))
        object.__setattr__(self, "key", (digest, code, value, args))

    def __lt__(self, other):
        return self.key < other.key

    def __setattr__(self, name, val):
        raise AttributeError("Expr nodes are immutable")

    # arithmetic sugar so vector-field definitions read naturally
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return mul(const(-1.0), self)

    def __pow__(self, n):
        return power(self, n)

    def is_const(self, v=None):
        return self.kind == CONST and (v is None or self.value == v)

    def __repr__(self):
        return f"Expr<{to_text(self)}>"


def _intern(kind, value, args):
    key = (kind, value, tuple(a._id for a in args))
    hit = _TABLE.get(key)
    if hit is not None:
        return hit
    node = Expr(kind, value, args, next(_IDS))
    return _TABLE.setdefault(key, node)


def _sort_key(node):
    return node.key


def _coerce(x):
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return const(float(x))
    raise TypeError(f"cannot coerce {type(x)} to Expr")


# ---------------------------------------------------------------------------
# constructors (these are the simplifier: every build path runs through them)


def const(v):
    v = float(v)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return _intern(CONST, v, ())


ZERO = const(0.0)
ONE = const(1.0)


def var(i):
    if i < 0:
        raise ValueError("variable index must be nonnegative")
    return _intern(VAR, int(i), ())


def add(*xs):
    flat = []
    acc = 0.0
    for x in xs:
        x = _coerce(x)
        if x.kind == ADD:
            flat.extend(x.args)
        elif x.kind == CONST:
            acc += x.value
        else:
            flat.append(x)
    # collect repeated identical addends into coefficient * node
    counts = {}
    order = []
    for x in flat:
        if x._id not in counts:
            counts[x._id] = [x, 0.0]
            order.append(x._id)
        counts[x._id][1] += 1.0
    terms = []
    for key in order:
        node, k = counts[key]
        # fold coefficient * node when node is itself const-scaled
        if k != 1.0:
            node = mul(const(k), node)
        if node.kind == CONST:
            acc += node.value
        else:
            terms.append(node)
    if acc != 0.0:
        terms.append(const(acc))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    terms.sort(key=_sort_key)
    return _intern(ADD, None, tuple(terms))


def sub(a, b):
    return add(a, mul(const(-1.0), b))


def mul(*xs):
    flat = []
    acc = 1.0
    for x in xs:
        x = _coerce(x)
        if x.kind == MUL:
            flat.extend(x.args)
        elif x.kind == CONST:
            acc *= x.value
        else:
            flat.append(x)
    if acc == 0.0:
        return ZERO
    # collect repeated factors into integer powers
    counts = {}
    order = []
    for x in flat:
        if x._id not in counts:
            counts[x._id] = [x, 0]
            order.append(x._id)
        counts[x._id][1] += 1
    factors = []
    for key in order:
        node, k = counts[key]
        factors.append(power(node, k) if k != 1 else node)
    factors = [f for f in factors if not f.is_const(1.0)]
    folded = [f for f in factors if f.kind == CONST]
    for f in folded:
        acc *= f.value
    factors = [f for f in factors if f.kind != CONST]
    if acc == 0.0:
        return ZERO
    if not factors:
        return const(acc)
    if acc != 1.0:
        factors.append(const(acc))
    if len(factors) == 1:
        return factors[0]
    factors.sort(key=_sort_key)
    return _intern(MUL, None, tuple(factors))


def div(a, b):
    a = _coerce(a)
    b = _coerce(b)
    if b.kind == CONST:
        if b.value == 0.0:
            raise ZeroDivisionError("constant zero denominator")
        return mul(a, const(1.0 / b.value))
    if a.is_const(0.0):
        return ZERO
    if a._id == b._id:
        return ONE
    return _intern(DIV, None, (a, b))


def power(a, n):
    a = _coerce(a)
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return a
    if a.kind == CONST:
        return const(a.value**n)
    if a.kind == POW:
        return power(a.args[0], a.value * n)
    return _intern(POW, n, (a,))


def sin(a):
    a = _coerce(a)
    if a.kind == CONST:
        return const(math.sin(a.value))
    return _intern(SIN, None, (a,))


def cos(a):
    a = _coerce(a)
    if a.kind == CONST:
        return const(math.cos(a.value))
    return _intern(COS, None, (a,))


def tan(a):
    a = _coerce(a)
    if a.kind == CONST:
        return const(math.tan(a.value))
    return _intern(TAN, None, (a,))


def sec(a):
    """Secant, spelled structurally as 1/cos."""
    return div(ONE, cos(a))


def simplify(e):
    """Rebuild bottom-up through the smart constructors (idempotent)."""
    if e.kind in (CONST, VAR):
        return e
    args = [simplify(a) for a in e.args]
    if e.kind == ADD:
        return add(*args)
    if e.kind == MUL:
        return mul(*args)
    if e.kind == DIV:
        return div(*args)
    if e.kind == POW:
        return power(args[0], e.value)
    return {SIN: sin, COS: cos, TAN: tan}[e.kind](args[0])


# ---------------------------------------------------------------------------
# differentiation

_DIFF_CACHE = {}


def differentiate(e, i):
    """Partial derivative with respect to state variable index i (0-based)."""
    key = (e._id, i)
    hit = _DIFF_CACHE.get(key)
    if hit is not None:
        return hit
    k = e.kind
    if k == CONST:
        out = ZERO
    elif k == VAR:
        out = ONE if e.value == i else ZERO
    elif k == ADD:
        out = add(*[differentiate(a, i) for a in e.args])
    elif k == MUL:
        parts = []
        for j, f in enumerate(e.args):
            df = differentiate(f, i)
            if df.is_const(0.0):
                continue
            rest = list(e.args[:j]) + list(e.args[j + 1 :]) + [df]
            parts.append(mul(*rest))
        out = add(*parts) if parts else ZERO
    elif k == DIV:
        a, b = e.args
        da, db = differentiate(a, i), differentiate(b, i)
        out = div(sub(mul(da, b), mul(a, db)), mul(b, b))
    elif k == POW:
        base = e.args[0]
        out = mul(const(e.value), power(base, e.value - 1), differentiate(base, i))
    elif k == SIN:
        out = mul(cos(e.args[0]), differentiate(e.args[0], i))
    elif k == COS:
        out = mul(const(-1.0), sin(e.args[0]), differentiate(e.args[0], i))
    elif k == TAN:
        out = div(differentiate(e.args[0], i), power(cos(e.args[0]), 2))
    else:  # pragma: no cover
        raise ValueError(f"unknown node kind {k}")
    _DIFF_CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# evaluation


def topological(exprs):
    """Every node under exprs once, each after its arguments.

    The order is the post-order of a depth-first walk that visits
    arguments in order, computed without recursion.  The emitters,
    JetTape, SlotTape and the RK4 kernel, consume this walk.
    """
    order = []
    seen = set()
    for root in exprs:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(root.args))]
        while stack:
            node, args = stack[-1]
            for a in args:
                if a not in seen:
                    seen.add(a)
                    stack.append((a, iter(a.args)))
                    break
            else:
                stack.pop()
                order.append(node)
    return order


def evaluate(e, z, memo=None):
    """Evaluate at the state vector z (indexable).  Raises EvaluationError
    on non-finite results (poles of tan, zero denominators, overflow).

    The literal recursive reference: the library evaluates through
    SlotTape, and the tests check the tape against this function."""
    if memo is None:
        memo = {}
    hit = memo.get(e._id)
    if hit is not None:
        return hit
    k = e.kind
    if k == CONST:
        v = e.value
    elif k == VAR:
        v = float(z[e.value])
    elif k == ADD:
        v = 0.0
        for a in e.args:
            v += evaluate(a, z, memo)
    elif k == MUL:
        v = 1.0
        for a in e.args:
            v *= evaluate(a, z, memo)
    elif k == DIV:
        num = evaluate(e.args[0], z, memo)
        den = evaluate(e.args[1], z, memo)
        if den == 0.0:
            raise EvaluationError(f"zero denominator in {to_text(e)}")
        v = num / den
    elif k == POW:
        base = evaluate(e.args[0], z, memo)
        if base == 0.0 and e.value < 0:
            raise EvaluationError(f"zero base with negative exponent in {to_text(e)}")
        try:
            v = base**e.value
        except OverflowError:
            raise EvaluationError(f"overflow evaluating {to_text(e)}") from None
    elif k == SIN:
        v = math.sin(evaluate(e.args[0], z, memo))
    elif k == COS:
        v = math.cos(evaluate(e.args[0], z, memo))
    else:
        v = math.tan(evaluate(e.args[0], z, memo))
    if not math.isfinite(v):
        raise EvaluationError(f"non-finite value evaluating {to_text(e)}")
    memo[e._id] = v
    return v


# ---------------------------------------------------------------------------
# Taylor-mode evaluation
#
# A jet is the list of normalized Taylor coefficients x_0, x_1, ... of
# x(t) = sum_k x_k t^k.  Each rule appends coefficient k of its node
# from coefficients 0..k of its arguments and 0..k-1 of its own jets.


def _jet_const(jets, out, args, value, k):
    jets[out].append(value if k == 0 else 0.0)


def _jet_add(jets, out, args, _, k):
    jets[out].append(sum(jets[a][k] for a in args))


def _jet_scale(jets, out, args, factor, k):
    jets[out].append(factor * jets[args[0]][k])


def _jet_mul(jets, out, args, _, k):
    a, b = jets[args[0]], jets[args[1]]
    jets[out].append(sum(a[j] * b[k - j] for j in range(k + 1)))


def _jet_div(jets, out, args, _, k):
    # q b = a, solved for q_k
    a, b, q = jets[args[0]], jets[args[1]], jets[out]
    if b[0] == 0.0:
        raise EvaluationError("zero denominator in a Taylor jet")
    q.append((a[k] - sum(b[j] * q[k - j] for j in range(1, k + 1))) / b[0])


def _jet_pow(jets, out, args, n, k):
    # negative n; p' a = n a' p gives k a_0 p_k = sum_{j=1..k} ((n+1) j - k) a_j p_{k-j}
    a, p = jets[args[0]], jets[out]
    if k == 0:
        if a[0] == 0.0:
            raise EvaluationError("zero base with negative exponent in a Taylor jet")
        p.append(a[0] ** n)
    else:
        p.append(sum(((n + 1) * j - k) * a[j] * p[k - j] for j in range(1, k + 1)) / (k * a[0]))


def _jet_sincos(jets, out, args, cos_slot, k):
    # s' = c a', c' = -s a'
    a, s, c = jets[args[0]], jets[out], jets[cos_slot]
    if k == 0:
        s.append(math.sin(a[0]))
        c.append(math.cos(a[0]))
    else:
        s.append(sum(j * a[j] * c[k - j] for j in range(1, k + 1)) / k)
        c.append(-sum(j * a[j] * s[k - j] for j in range(1, k + 1)) / k)


def _jet_tan(jets, out, args, sq_slot, k):
    # t' = v a' with v = 1 + t^2
    a, t, v = jets[args[0]], jets[out], jets[sq_slot]
    if k == 0:
        t.append(math.tan(a[0]))
        v.append(1.0 + t[0] * t[0])
    else:
        t.append(sum(j * a[j] * v[k - j] for j in range(1, k + 1)) / k)
        v.append(sum(t[j] * t[k - j] for j in range(k + 1)))


class JetTape:
    """Taylor-mode automatic differentiation of expressions along a state jet.

    The nodes under ``exprs`` form one topologically ordered tape (see
    Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13).  The
    tape holds the program only, so one tape serves any number of
    expansions: ``fresh()`` gives a list of empty jets, ``jets[slot]``
    being the coefficient list of one node.  The first n_vars slots are
    the variables' jets, which the caller fills: every variable's jet
    must hold coefficient k before ``step(jets, k)``, whether the caller
    extends it as it goes (a state) or sets it whole in advance (a
    constant parameter, a known input).  ``slots[i]`` is the slot of
    ``exprs[i]``.  Products and positive integer powers are split into
    binary Cauchy products, negative powers take the power recurrence,
    sin and cos of one argument share a rule, and tan carries 1 + tan^2
    in a slot of its own.
    """

    def __init__(self, exprs, n_vars):
        self.n_vars = n_vars
        self.n_slots = n_vars
        self._code = []  # (rule, out slot, argument slots, parameter)
        self._slots = {}
        self._trig = {}  # argument slot -> (sin slot, cos slot)
        exprs = [_coerce(e) for e in exprs]
        for e in topological(exprs):
            if e.kind != CONST:
                self._slots[e] = self._emit(e)
        self.slots = [self._arg(e) for e in exprs]

    def _slot(self):
        self.n_slots += 1
        return self.n_slots - 1

    def _new(self, rule, args, param=None):
        out = self._slot()
        self._code.append((rule, out, args, param))
        return out

    def _arg(self, e):
        """The slot of an emitted node; a constant gets one at its first use
        outside a product, where it folds into the factor instead."""
        slot = self._slots.get(e)
        if slot is None:
            slot = self._slots[e] = self._new(_jet_const, (), e.value)
        return slot

    def _emit(self, e):
        """The slot of a non-constant node whose arguments have theirs."""
        k = e.kind
        if k == VAR:
            if e.value >= self.n_vars:
                raise ValueError(f"variable z{e.value + 1} outside the jet's {self.n_vars} variables")
            return e.value
        if k == ADD:
            return self._new(_jet_add, tuple(self._arg(a) for a in e.args))
        if k == MUL:
            factor = 1.0
            slot = None
            for a in e.args:
                if a.kind == CONST:
                    factor *= a.value
                    continue
                a_slot = self._arg(a)
                slot = a_slot if slot is None else self._new(_jet_mul, (slot, a_slot))
            if factor != 1.0:
                slot = self._new(_jet_scale, (slot,), factor)
            return slot
        if k == DIV:
            return self._new(_jet_div, (self._arg(e.args[0]), self._arg(e.args[1])))
        if k == POW and e.value > 0:
            base = self._arg(e.args[0])
            slot = base
            for _ in range(e.value - 1):
                slot = self._new(_jet_mul, (slot, base))
            return slot
        if k == POW:
            return self._new(_jet_pow, (self._arg(e.args[0]),), e.value)
        if k in (SIN, COS):
            arg = self._arg(e.args[0])
            pair = self._trig.get(arg)
            if pair is None:
                cos_slot = self._slot()
                pair = (self._new(_jet_sincos, (arg,), cos_slot), cos_slot)
                self._trig[arg] = pair
            return pair[0] if k == SIN else pair[1]
        return self._new(_jet_tan, (self._arg(e.args[0]),), self._slot())

    def fresh(self):
        """One empty jet per slot."""
        return [[] for _ in range(self.n_slots)]

    def step(self, jets, k):
        """Append coefficient k to every node's jet in jets.

        The variables' jets must already hold coefficient k.  Raises
        EvaluationError on a zero denominator, a zero base with a
        negative exponent, or a non-finite coefficient.
        """
        try:
            for rule, out, args, param in self._code:
                rule(jets, out, args, param, k)
        except (OverflowError, ValueError):
            raise EvaluationError(f"non-finite value in a Taylor jet at order {k}") from None
        if not all(math.isfinite(jet[k]) for jet in jets):
            raise EvaluationError(f"non-finite value in a Taylor jet at order {k}")


def node_source(e, args):
    """Python source of one node's value from its arguments' source."""
    k = e.kind
    if k == ADD:
        return " + ".join(args)
    if k == MUL:
        return " * ".join(args)
    if k == DIV:
        return f"{args[0]} / {args[1]}"
    if k == POW:
        return f"{args[0]} ** {e.value}"
    return f"_math.{k}({args[0]})"


class SlotTape:
    """Straight-line evaluation of expressions over one shared slot list.

    Every node under ``exprs`` owns one slot: the first n_vars slots
    take the point as floats (n_vars is one past the largest variable
    index the expressions read), constants sit in a template, and each
    other node is one assignment ``s[k] = s[a] + s[b] + ...`` in
    topological order.
    Sums and products keep their argument order, so each value is
    bit-identical to evaluate()'s.  The assignments are compiled in
    chunks of at most CHUNK statements, one small code object each, so
    neither the source nor the compiler's working set is ever built for
    the whole table at once.  Calling the tape at a point returns the
    values of ``exprs`` in order, or raises EvaluationError where
    evaluate() raises: on a zero denominator, a zero base with a
    negative exponent, an overflow, or any non-finite slot.
    """

    # statements per compiled chunk: the compiler's working memory that
    # the process keeps grows with it (degree-8 car table, 3,983 nodes:
    # +0.36 MB resident at 50, +1.8 MB at 200), its speed does not
    CHUNK = 50

    def __init__(self, exprs):
        exprs = [_coerce(e) for e in exprs]
        order = topological(exprs)
        self.n_vars = 1 + max((e.value for e in order if e.kind == VAR), default=-1)
        slots = {}
        template = [0.0] * self.n_vars
        self._chunks = []
        lines = []
        for e in order:
            if e.kind == VAR:
                slots[e] = e.value
                continue
            slots[e] = len(template)
            template.append(e.value if e.kind == CONST else 0.0)
            if e.kind == CONST:
                continue
            lines.append(f"    s[{slots[e]}] = {node_source(e, [f's[{slots[a]}]' for a in e.args])}")
            if len(lines) == self.CHUNK:
                self._chunks.append(self._compile(lines))
                lines = []
        if lines:
            self._chunks.append(self._compile(lines))
        self._template = template
        self.n_slots = len(template)
        self._read = reader([slots[e] for e in exprs])

    @staticmethod
    def _compile(lines):
        scope = {"_math": math}
        exec(compile("def _chunk(s):\n" + "\n".join(lines) + "\n", "<fliess-tape>", "exec"), scope)
        return scope["_chunk"]

    def __call__(self, point):
        """Values of the expressions at point, which holds at least n_vars entries."""
        n = self.n_vars
        if len(point) < n:
            raise ValueError(f"the tape reads {n} variables, the point holds {len(point)}")
        s = self._template.copy()
        s[:n] = map(float, point[:n])
        try:
            for chunk in self._chunks:
                chunk(s)
        except (ZeroDivisionError, OverflowError, ValueError):
            # a zero denominator, 0 ** -n, a power's overflow, or a
            # non-finite argument of sin, cos or tan
            raise EvaluationError(
                "zero denominator, zero base with negative exponent, or overflow in a tape entry"
            ) from None
        # one sum decides the common case; it overflows only if the
        # slots are large, and then the slot-by-slot check decides
        if not math.isfinite(sum(s)) and not all(map(math.isfinite, s)):
            raise EvaluationError("non-finite value in a tape entry")
        return self._read(s)


def reader(positions):
    """A function s -> tuple(s[p] for p in positions), for any number of positions."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    return lambda s: tuple(s[p] for p in positions)


# ---------------------------------------------------------------------------
# textual form


_PREC = {ADD: 1, MUL: 2, DIV: 2, POW: 3}


def to_text(e):
    """Render as infix text: z-variables, + - * / ^int, sin/cos/tan."""

    def render(node, parent_prec):
        k = node.kind
        if k == CONST:
            v = node.value
            if v == int(v) and abs(v) < 1e16:
                s = str(int(v))
            else:
                s = repr(v)
            if v < 0 and parent_prec > 1:
                return f"({s})"
            return s
        if k == VAR:
            return f"z{node.value + 1}"
        if k in (SIN, COS, TAN):
            return f"{k}({render(node.args[0], 0)})"
        if k == ADD:
            s = "+".join(render(a, 1) for a in node.args).replace("+-", "-")
            return f"({s})" if parent_prec > 1 else s
        if k == MUL:
            # a quotient factor keeps its parentheses: bare after another
            # factor, z3*z1/z2 would read as (z3*z1)/z2, another node
            s = "*".join(render(a, 3 if a.kind == DIV else 2) for a in node.args)
            return f"({s})" if parent_prec > 2 else s
        if k == DIV:
            num = render(node.args[0], 2)
            den = render(node.args[1], 3)
            s = f"{num}/{den}"
            return f"({s})" if parent_prec > 2 else s
        if k == POW:
            return f"{render(node.args[0], 4)}^{node.value}"
        raise ValueError(k)

    return render(e, 0)

