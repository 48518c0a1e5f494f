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
    arguments in order, computed without recursion.  Its consumers are
    the generated evaluators (SlotTape, emit for the RK4 kernel,
    jet_steps for the Taylor-mode kernel) and the realization's check
    of the variables its expressions read.
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
# generated evaluators
#
# SlotTape, the RK4 kernel and the Taylor-mode kernel are straight-line
# Python emitted from one topological walk of the expression DAG, and
# they compile through compiled_function only.


def compiled_function(params, body, **scope):
    """The function ``def _f(params)`` whose body is the source lines body.

    Its globals are scope plus _math and _isfinite.
    """
    source = f"def _f({params}):\n" + "".join(f"    {line}\n" for line in body)
    scope.update(_math=math, _isfinite=math.isfinite)
    exec(compile(source, "<fliess-generated>", "exec"), scope)
    return scope["_f"]


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


def emit(exprs, var_names, suffix, consts):
    """Source lines that evaluate exprs, one local per node in topological order.

    var_names[i] names variable i, suffix tells these node locals from
    another evaluation's, and consts maps each constant value to its
    local.  Returns the lines, the names of the values of exprs, and
    the names of every value a SlotTape of exprs holds: the variables
    up to the last one read, the constants and the nodes.
    """
    order = topological(exprs)
    n_vars = 1 + max((e.value for e in order if e.kind == VAR), default=-1)
    names, lines, held = {}, [], var_names[:n_vars]
    for e in order:
        if e.kind == VAR:
            names[e] = var_names[e.value]
            continue
        if e.kind == CONST:
            names[e] = consts.setdefault(e.value, f"c{len(consts)}")
        else:
            names[e] = f"t{len(lines)}{suffix}"
            lines.append(f"{names[e]} = {node_source(e, [names[a] for a in e.args])}")
        held.append(names[e])
    return lines, [names[e] for e in exprs], held


def tuple_source(names):
    """Source of a tuple of names, for any number of them, also as an assignment target."""
    return "(" + "".join(f"{x}, " for x in names) + ")"


def finite_check(names, fail):
    """SlotTape's check of the named values: one sum, then value by value."""
    if not names:
        return []
    return [
        f"if not _isfinite({' + '.join(names)}) and not all(map(_isfinite, {tuple_source(names)})):",
        f"    {fail}",
    ]


def guarded(lines, fail):
    """lines, with what a tape entry raises mapped to fail."""
    if not lines:
        return []
    return [
        "try:",
        *(f"    {line}" for line in lines),
        "except (ZeroDivisionError, OverflowError, ValueError):",
        f"    {fail} from None",
    ]


# ---------------------------------------------------------------------------
# Taylor-mode source
#
# A jet is the list of the local names of the normalized Taylor
# coefficients x_0, x_1, ... of x(t) = sum_k x_k t^k (Griewank & Walther,
# Evaluating Derivatives, 2nd ed., ch. 13).


def _sum(terms):
    """Source of sum(terms): from the int 0, left to right, as sum() adds."""
    return " + ".join(["0", *terms])


def _weighted(a, b, k):
    """Source of sum(j * a[j] * b[k - j] for j in range(1, k + 1))."""
    return _sum(f"{j} * {a[j]} * {b[k - j]}" for j in range(1, k + 1))


def jet_steps(exprs, var_jets, degree, consts):
    """The steps that fill the jets, through coefficient degree, of every node under exprs.

    var_jets[i] is variable i's jet; consts maps each constant value to
    its local, and a constant's jet is its local, then zeros.  Products
    are binary Cauchy products with one scale for their constant
    factors, positive integer powers are repeated products, sin and cos
    of one argument share a pair of jets, and tan carries 1 + tan^2.
    Returns the steps (kind, output jets, argument jets, parameter) in
    an order that runs each after its arguments', the jets of exprs,
    and every jet, the variables' first.
    """
    jets, trig, steps, every = {}, {}, [], list(var_jets)

    def new(kind, args, param=None, width=1):
        outs = [[f"t{len(every) + i}_{k}" for k in range(degree + 1)] for i in range(width)]
        every.extend(outs)
        steps.append((kind, outs, args, param))
        return outs

    def jet(e):
        """A node's jet; a constant gets one at its first use outside a product."""
        if e not in jets:
            jets[e] = [consts.setdefault(e.value, f"c{len(consts)}")] + ["0.0"] * degree
            every.append(jets[e])
        return jets[e]

    for e in topological(exprs):
        k = e.kind
        if k == CONST:
            continue
        if k == VAR:
            out = var_jets[e.value]
        elif k in (ADD, DIV):
            out = new(k, [jet(a) for a in e.args])[0]
        elif k == MUL:
            factor, out = 1.0, None
            for a in e.args:
                if a.kind == CONST:
                    factor *= a.value
                else:
                    out = jet(a) if out is None else new(MUL, [out, jet(a)])[0]
            if factor != 1.0:
                out = new("scale", [out], consts.setdefault(factor, f"c{len(consts)}"))[0]
        elif k == POW and e.value > 0:
            out = base = jet(e.args[0])
            for _ in range(e.value - 1):
                out = new(MUL, [out, base])[0]
        elif k == POW:
            out = new(POW, [jet(e.args[0])], e.value)[0]
        elif k == TAN:
            out = new(TAN, [jet(e.args[0])], width=2)[0]
        else:
            if e.args[0] not in trig:
                trig[e.args[0]] = new("sincos", [jet(e.args[0])], width=2)
            out = trig[e.args[0]][k == COS]
        jets[e] = out
    return steps, [jet(e) for e in exprs], every


def coefficient_source(kind, outs, args, param, k):
    """Source lines that set coefficient k of one step's output jets.

    They read coefficients 0..k of the argument jets and 0..k-1 of the
    output jets.  A quotient checks its denominator, and a negative
    power its base, once, at order 0, and raise EvaluationError.
    """
    o, a = outs[0], args[0]
    if kind == ADD:
        return [f"{o[k]} = {_sum(x[k] for x in args)}"]
    if kind == "scale":
        return [f"{o[k]} = {param} * {a[k]}"]
    if kind == MUL:
        b = args[1]
        return [f"{o[k]} = {_sum(f'{a[j]} * {b[k - j]}' for j in range(k + 1))}"]
    if kind == DIV:
        # q b = a, solved for q_k
        b = args[1]
        check = [f"if {b[0]} == 0.0: raise _EvaluationError('zero denominator in a Taylor jet')"]
        rest = _sum(f"{b[j]} * {o[k - j]}" for j in range(1, k + 1))
        return check * (k == 0) + [f"{o[k]} = ({a[k]} - ({rest})) / {b[0]}"]
    if kind == POW:
        # negative n; p' a = n a' p gives k a_0 p_k = sum_{j=1..k} ((n+1) j - k) a_j p_{k-j}
        if k == 0:
            message = "zero base with negative exponent in a Taylor jet"
            check = f"if {a[0]} == 0.0: raise _EvaluationError('{message}')"
            return [check, f"{o[0]} = {a[0]} ** {param}"]
        terms = (f"{(param + 1) * j - k} * {a[j]} * {o[k - j]}" for j in range(1, k + 1))
        return [f"{o[k]} = ({_sum(terms)}) / ({k} * {a[0]})"]
    x, y = outs
    if kind == "sincos":
        # s' = c a', c' = -s a'
        if k == 0:
            return [f"{x[0]} = _math.sin({a[0]})", f"{y[0]} = _math.cos({a[0]})"]
        return [f"{x[k]} = ({_weighted(a, y, k)}) / {k}", f"{y[k]} = -({_weighted(a, x, k)}) / {k}"]
    # tan: t' = v a' with v = 1 + t^2
    if k == 0:
        return [f"{x[0]} = _math.tan({a[0]})", f"{y[0]} = 1.0 + {x[0]} * {x[0]}"]
    square = _sum(f"{x[j]} * {x[k - j]}" for j in range(k + 1))
    return [f"{x[k]} = ({_weighted(a, y, k)}) / {k}", f"{y[k]} = {square}"]


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
            lines.append(f"s[{slots[e]}] = {node_source(e, [f's[{slots[a]}]' for a in e.args])}")
            if len(lines) == self.CHUNK:
                self._chunks.append(compiled_function("s", lines))
                lines = []
        if lines:
            self._chunks.append(compiled_function("s", lines))
        self._template = template
        self.n_slots = len(template)
        self._read = reader([slots[e] for e in exprs])

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

