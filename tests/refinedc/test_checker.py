"""Checker tests on small programs: what verifies, what fails, and why.

Each test is a miniature C program with a spec; negative tests pin down
that the checker rejects genuinely wrong code/specs (no vacuous success).
"""


from repro.frontend import verify_source


def ok(src):
    out = verify_source(src)
    assert out.ok, out.report()
    return out


def fails(src, fragment=None):
    out = verify_source(src)
    assert not out.ok, "expected a verification failure"
    if fragment is not None:
        assert fragment in out.report(), out.report()
    return out


class TestIntegers:
    def test_identity(self):
        ok('''
        [[rc::parameters("n: nat")]]
        [[rc::args("n @ int<size_t>")]]
        [[rc::returns("n @ int<size_t>")]]
        size_t id(size_t x) { return x; }''')

    def test_addition(self):
        ok('''
        [[rc::parameters("n: nat")]]
        [[rc::args("n @ int<size_t>")]]
        [[rc::requires("{n <= 1000}")]]
        [[rc::returns("{n + 1} @ int<size_t>")]]
        size_t inc(size_t x) { return x + 1; }''')

    def test_overflow_rejected(self):
        # Without a bound, x + 1 may wrap: RefinedC rejects it.
        fails('''
        [[rc::parameters("n: nat")]]
        [[rc::args("n @ int<size_t>")]]
        [[rc::returns("{n + 1} @ int<size_t>")]]
        size_t inc(size_t x) { return x + 1; }''', "side condition")

    def test_wrong_result_rejected(self):
        fails('''
        [[rc::parameters("n: nat")]]
        [[rc::args("n @ int<size_t>")]]
        [[rc::requires("{n <= 1000}")]]
        [[rc::returns("{n + 2} @ int<size_t>")]]
        size_t inc(size_t x) { return x + 1; }''')

    def test_signed_division_needs_nonzero(self):
        fails('''
        [[rc::parameters("a: nat", "b: nat")]]
        [[rc::args("a @ int<size_t>", "b @ int<size_t>")]]
        [[rc::returns("int<size_t>")]]
        size_t div(size_t a, size_t b) { return a / b; }''')

    def test_division_with_precondition(self):
        ok('''
        [[rc::parameters("a: nat", "b: nat")]]
        [[rc::args("a @ int<size_t>", "b @ int<size_t>")]]
        [[rc::requires("{b != 0}")]]
        [[rc::returns("{a / b} @ int<size_t>")]]
        size_t div(size_t a, size_t b) { return a / b; }''')

    def test_branching(self):
        ok('''
        [[rc::parameters("a: nat", "b: nat")]]
        [[rc::args("a @ int<size_t>", "b @ int<size_t>")]]
        [[rc::returns("{max(a, b)} @ int<size_t>")]]
        size_t maxi(size_t a, size_t b) {
          if (a < b) return b;
          return a;
        }''')

    def test_boolean_result(self):
        ok('''
        [[rc::parameters("a: nat", "b: nat")]]
        [[rc::args("a @ int<size_t>", "b @ int<size_t>")]]
        [[rc::returns("{a <= b} @ bool<int>")]]
        int le(size_t a, size_t b) { return a <= b; }''')


class TestOwnership:
    def test_write_through_pointer(self):
        ok('''
        [[rc::parameters("p: loc", "v: nat")]]
        [[rc::args("p @ &own<int<size_t>>", "v @ int<size_t>")]]
        [[rc::ensures("own p : v @ int<size_t>")]]
        void set(size_t* p, size_t v) { *p = v; }''')

    def test_swap(self):
        ok('''
        [[rc::parameters("p: loc", "q: loc", "x: nat", "y: nat")]]
        [[rc::args("p @ &own<x @ int<size_t>>", "q @ &own<y @ int<size_t>>")]]
        [[rc::ensures("own p : y @ int<size_t>", "own q : x @ int<size_t>")]]
        void swap(size_t* p, size_t* q) {
          size_t tmp = *p;
          *p = *q;
          *q = tmp;
        }''')

    def test_swap_wrong_post_rejected(self):
        fails('''
        [[rc::parameters("p: loc", "q: loc", "x: nat", "y: nat")]]
        [[rc::args("p @ &own<x @ int<size_t>>", "q @ &own<y @ int<size_t>>")]]
        [[rc::ensures("own p : x @ int<size_t>", "own q : y @ int<size_t>")]]
        void swap(size_t* p, size_t* q) {
          size_t tmp = *p;
          *p = *q;
          *q = tmp;
        }''')

    def test_use_after_move_rejected(self):
        # Returning the same owned pointer twice would duplicate ownership.
        fails('''
        [[rc::parameters("p: loc")]]
        [[rc::args("p @ &own<int<size_t>>")]]
        [[rc::returns("&own<int<size_t>>")]]
        [[rc::ensures("own p : int<size_t>")]]
        size_t* dup(size_t* p) { return p; }''')

    def test_null_deref_rejected(self):
        fails('''
        [[rc::returns("int<size_t>")]]
        size_t bad(void) {
          size_t* p = NULL;
          return *p;
        }''')

    def test_uninitialised_read_rejected(self):
        fails('''
        [[rc::returns("int<size_t>")]]
        size_t bad(void) {
          size_t x;
          return x;
        }''')

    def test_struct_field_update(self):
        ok('''
        struct [[rc::refined_by("x: nat", "y: nat")]] point {
          [[rc::field("x @ int<size_t>")]] size_t x;
          [[rc::field("y @ int<size_t>")]] size_t y;
        };
        [[rc::parameters("p: loc", "x: nat", "y: nat")]]
        [[rc::args("p @ &own<(x, y) @ point>")]]
        [[rc::ensures("own p : (y, x) @ point")]]
        void flip(struct point* p) {
          size_t tmp = p->x;
          p->x = p->y;
          p->y = tmp;
        }''')

    def test_missing_ownership_rejected(self):
        # Writing through an unowned pointer value must fail.
        fails('''
        [[rc::parameters("v: nat")]]
        [[rc::args("v @ int<size_t>")]]
        void bad(size_t v) {
          size_t* p = NULL;
          *p = v;
        }''')


class TestControlFlow:
    def test_loop_with_invariant(self):
        ok('''
        [[rc::parameters("n: nat")]]
        [[rc::args("n @ int<size_t>")]]
        [[rc::requires("{n <= 1000}")]]
        [[rc::returns("n @ int<size_t>")]]
        size_t count(size_t n) {
          size_t i = 0;
          [[rc::exists("c: nat")]]
          [[rc::inv_vars("i: c @ int<size_t>")]]
          [[rc::constraints("{c <= n}")]]
          while (i < n) { i += 1; }
          return i;
        }''')

    def test_loop_invariant_too_weak(self):
        fails('''
        [[rc::parameters("n: nat")]]
        [[rc::args("n @ int<size_t>")]]
        [[rc::requires("{n <= 1000}")]]
        [[rc::returns("n @ int<size_t>")]]
        size_t count(size_t n) {
          size_t i = 0;
          [[rc::exists("c: nat")]]
          [[rc::inv_vars("i: c @ int<size_t>")]]
          while (i < n) { i += 1; }
          return i;
        }''')

    def test_calls_compose_specs(self):
        ok('''
        [[rc::parameters("n: nat")]]
        [[rc::args("n @ int<size_t>")]]
        [[rc::requires("{n <= 100}")]]
        [[rc::returns("{n + 1} @ int<size_t>")]]
        size_t inc(size_t x) { return x + 1; }

        [[rc::parameters("n: nat")]]
        [[rc::args("n @ int<size_t>")]]
        [[rc::requires("{n <= 50}")]]
        [[rc::returns("{n + 2} @ int<size_t>")]]
        size_t inc2(size_t x) { return inc(inc(x)); }''')

    def test_call_violating_callee_precondition(self):
        fails('''
        [[rc::parameters("n: nat")]]
        [[rc::args("n @ int<size_t>")]]
        [[rc::requires("{n <= 100}")]]
        [[rc::returns("{n + 1} @ int<size_t>")]]
        size_t inc(size_t x) { return x + 1; }

        [[rc::parameters("n: nat")]]
        [[rc::args("n @ int<size_t>")]]
        [[rc::returns("{n + 1} @ int<size_t>")]]
        size_t wrap(size_t x) { return inc(x); }''')

    def test_trusted_function_assumed(self):
        # rc::trusted specs are axioms for callers (no body check).
        ok('''
        [[rc::trusted]]
        [[rc::parameters("n: nat")]]
        [[rc::args("n @ int<size_t>")]]
        [[rc::returns("{n * 2} @ int<size_t>")]]
        size_t magic(size_t x);

        [[rc::parameters("n: nat")]]
        [[rc::args("n @ int<size_t>")]]
        [[rc::returns("{n * 2} @ int<size_t>")]]
        size_t caller(size_t x) { return magic(x); }''')

    def test_spec_without_body_not_trusted_fails(self):
        # Regression: a spec'd function with no body and no rc::trusted
        # used to be silently skipped — its (unproved) spec was assumed
        # by every caller.  It must be an explicit failure.
        out = fails('''
        [[rc::parameters("n: nat")]]
        [[rc::args("n @ int<size_t>")]]
        [[rc::returns("{n * 2} @ int<size_t>")]]
        size_t magic(size_t x);

        [[rc::parameters("n: nat")]]
        [[rc::args("n @ int<size_t>")]]
        [[rc::returns("{n * 2} @ int<size_t>")]]
        size_t caller(size_t x) { return magic(x); }''',
                    "no body")
        fr = out.result.functions["magic"]
        assert not fr.ok
        assert "rc::trusted" in fr.format_error()
        # The caller itself still verifies against the assumed spec.
        assert out.result.functions["caller"].ok

    def test_missing_body_reported_identically_by_driver_paths(self):
        src = '''
        [[rc::returns("{7} @ int<size_t>")]]
        size_t ghost(void);'''
        from repro.frontend import verify_source as vs
        serial = vs(src, jobs=1)
        parallel = vs(src, jobs=2)
        assert not serial.ok and not parallel.ok
        assert serial.result.functions["ghost"].format_error() \
            == parallel.result.functions["ghost"].format_error()


class TestStatistics:
    def test_no_backtracking_counter(self):
        out = ok('''
        [[rc::parameters("n: nat")]]
        [[rc::args("n @ int<size_t>")]]
        [[rc::returns("n @ int<size_t>")]]
        size_t id(size_t x) { return x; }''')
        for fr in out.result.functions.values():
            assert fr.stats.backtracks == 0

    def test_rule_accounting(self):
        out = ok('''
        [[rc::parameters("n: nat")]]
        [[rc::args("n @ int<size_t>")]]
        [[rc::returns("n @ int<size_t>")]]
        size_t id(size_t x) { return x; }''')
        fr = out.result.functions["id"]
        assert fr.stats.rule_applications > 0
        assert len(fr.stats.rules_used) > 0
        assert fr.stats.rule_applications >= len(fr.stats.rules_used)


class TestFailedResult:
    def test_a_rejected_mutant_keeps_no_traceback(self):
        """A failed function's result holds its error, not the frames of
        the search that raised it: a serial result matches a pooled one,
        which pickling already stripped."""
        from repro.fuzz.generator import generate_program
        mutant = generate_program(1, 0).mutants[0]
        serial = verify_source(mutant.source, jobs=1, trace=True)
        pooled = verify_source(mutant.source, jobs=2, trace=True)
        assert not serial.ok
        failed = [n for n, fr in serial.result.functions.items()
                  if not fr.ok]
        assert failed
        for name in failed:
            error = serial.result.functions[name].error
            other = pooled.result.functions[name].error
            assert error.__traceback__ is None
            assert error.format() == other.format()
            assert error.stuck.render() == other.stuck.render()
