"""Tests for the lexer, the parser, and the pretty-printer round trip."""

from pathlib import Path

import numpy as np
import pytest

from repro.descend.api import ERR_SYNTAX, OP_CHECK, LocalBackend, Request, compile_source
from repro.descend.ast import terms as T
from repro.descend.ast.printer import print_program
from repro.descend.ast.types import ArrayType, ArrayViewType, RefType
from repro.descend.frontend import parse_program, tokenize
from repro.descend.frontend.parser import MAX_NESTING, MAX_TREE_DEPTH
from repro.descend.frontend.tokens import TokenKind
from repro.descend.typeck import check_program
from repro.errors import DescendSyntaxError, DescendTypeError
from repro.gpusim import GpuDevice

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

SCALE_SRC = """
fn scale_vec(vec: &uniq gpu.global [f64; 256]) -[grid: gpu.grid<X<8>, X<32>>]-> () {
    sched(X) block in grid {
        sched(X) thread in block {
            vec.group::<32>[[block]][[thread]] = vec.group::<32>[[block]][[thread]] * 3.0
        }
    }
}
"""

HOST_SRC = """
fn host_scale(h_vec: &uniq cpu.mem [f64; 256]) -[t: cpu.thread]-> () {
    let d_vec = GpuGlobal::alloc_copy(&(*h_vec));
    scale_vec::<<<X<8>, X<32>>>>(&uniq *d_vec);
    copy_mem_to_host(&uniq *h_vec, &(*d_vec))
}
"""


class TestLexer:
    def test_basic_tokens(self):
        kinds = [t.kind for t in tokenize("fn foo ( ) { }")]
        assert kinds[:6] == [
            TokenKind.IDENT,
            TokenKind.IDENT,
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACE,
            TokenKind.RBRACE,
        ]
        assert kinds[-1] == TokenKind.EOF

    def test_two_char_tokens(self):
        kinds = [t.kind for t in tokenize(":: .. && || == != <= >= -> =>")]
        assert TokenKind.COLONCOLON in kinds and TokenKind.DOTDOT in kinds
        assert TokenKind.ARROW in kinds and TokenKind.FATARROW in kinds

    def test_numbers(self):
        tokens = tokenize("42 3.5 0")
        assert tokens[0].kind == TokenKind.INT and tokens[0].text == "42"
        assert tokens[1].kind == TokenKind.FLOAT and tokens[1].text == "3.5"

    def test_range_is_not_a_float(self):
        kinds = [t.kind for t in tokenize("[0..4]")]
        assert TokenKind.DOTDOT in kinds
        assert TokenKind.FLOAT not in kinds

    def test_comments_are_skipped(self):
        tokens = tokenize("// line comment\nfn /* block */ foo")
        assert [t.text for t in tokens[:-1]] == ["fn", "foo"]

    def test_unexpected_character(self):
        with pytest.raises(DescendSyntaxError):
            tokenize("fn $")

    def test_unterminated_block_comment(self):
        with pytest.raises(DescendSyntaxError):
            tokenize("/* never closed")


class TestParser:
    def test_parse_gpu_function(self):
        prog = parse_program(SCALE_SRC)
        assert [f.name for f in prog.fun_defs] == ["scale_vec"]
        fun_def = prog.fun_defs[0]
        assert isinstance(fun_def.params[0].ty, RefType)
        assert fun_def.exec_spec.is_gpu()
        sched_term = fun_def.body.stmts[0]
        assert isinstance(sched_term, T.Sched)

    def test_parse_host_function_with_launch(self):
        prog = parse_program(SCALE_SRC + HOST_SRC)
        host = prog.fun("host_scale")
        launches = [s for s in host.body.stmts if isinstance(s, T.KernelLaunch)]
        assert len(launches) == 1
        assert launches[0].name == "scale_vec"

    def test_parse_nested_array_and_view_types(self):
        src = """
        fn f(a: & gpu.global [[f64; 4]; 8], b: &uniq gpu.global [f64; 16])
            -[grid: gpu.grid<X<1>, X<16>>]-> () {
            sched(X) block in grid { sched(X) thread in block { } }
        }
        """
        prog = parse_program(src)
        a_ty = prog.fun_defs[0].params[0].ty
        assert isinstance(a_ty, RefType)
        assert isinstance(a_ty.referent, ArrayType)
        assert isinstance(a_ty.referent.elem, ArrayType)

    def test_parse_view_type(self):
        src = """
        fn f(a: & gpu.global [[f64; 4]]) -[grid: gpu.grid<X<1>, X<4>>]-> () {
            sched(X) block in grid { sched(X) thread in block { } }
        }
        """
        a_ty = parse_program(src).fun_defs[0].params[0].ty
        assert isinstance(a_ty.referent, ArrayViewType)

    def test_parse_split_and_sync(self):
        src = """
        fn k(arr: &uniq gpu.global [f64; 64]) -[grid: gpu.grid<X<1>, X<64>>]-> () {
            sched(X) block in grid {
                split(X) block at 32 {
                    lo => { },
                    hi => { }
                };
                sync
            }
        }
        """
        prog = parse_program(src)
        stmts = prog.fun_defs[0].body.stmts[0].body.stmts
        assert isinstance(stmts[0], T.SplitExec)
        assert isinstance(stmts[1], T.Sync)

    def test_parse_for_nat_and_generics(self):
        src = """
        fn k<n: nat>(arr: &uniq gpu.global [f64; n]) -[grid: gpu.grid<X<1>, X<n>>]-> () {
            sched(X) block in grid {
                sched(X) thread in block {
                    for i in [0..4] { arr[[thread]] = 1.0 }
                }
            }
        }
        """
        prog = parse_program(src)
        fun_def = prog.fun_defs[0]
        assert fun_def.generics[0].name == "n"

    def test_parse_view_with_view_argument(self):
        src = """
        fn k(m: & gpu.global [[f64; 4]; 4]) -[grid: gpu.grid<X<1>, X<4>>]-> () {
            sched(X) block in grid {
                sched(X) thread in block {
                    let x = m.map(rev)[[thread]][0]
                }
            }
        }
        """
        prog = parse_program(src)
        let_stmt = prog.fun_defs[0].body.stmts[0].body.stmts[0].body.stmts[0]
        assert isinstance(let_stmt, T.LetTerm)

    def test_syntax_error_reports_span(self):
        with pytest.raises(DescendSyntaxError) as excinfo:
            parse_program("fn broken(")
        assert excinfo.value.diagnostic is not None

    def test_assignment_to_non_place_rejected(self):
        src = """
        fn host() -[t: cpu.thread]-> () {
            1 = 2
        }
        """
        with pytest.raises(DescendSyntaxError):
            parse_program(src)

    def test_missing_fn_keyword(self):
        with pytest.raises(DescendSyntaxError):
            parse_program("let x = 3")

    @pytest.mark.parametrize(
        "old, new",
        [
            ("3.0", "(" * 500 + "3.0" + ")" * 500),
            ("3.0", "-" * 500 + "3.0"),
            ("f64; 1024", "f64; " + "(" * 500 + "1024" + ")" * 500),
            ("[f64; 1024]", "[" * 500 + "f64" + "; 2]" * 500),
        ],
        ids=["parentheses", "prefix-operators", "nat-parentheses", "array-types"],
    )
    def test_deep_nesting_is_a_syntax_error(self, old, new):
        """Hostile nesting gets a syntax-error response, not a RecursionError."""
        text = (EXAMPLES / "scale_vec.descend").read_text().replace(old, new)
        response = LocalBackend().handle(Request(op=OP_CHECK, source=text))
        assert response.error_code == ERR_SYNTAX
        assert f"nesting deeper than {MAX_NESTING} levels" in response.error["message"]

    def test_nesting_below_the_limit_parses(self):
        text = (EXAMPLES / "scale_vec.descend").read_text()
        shallow = text.replace("3.0", "(" * 20 + "3.0" + ")" * 20)
        prog = parse_program(shallow)
        assert print_program(prog) == print_program(parse_program(text))

    _STORE_RHS = "(vec.group::<64>[[block]][[thread]] * 3.0)"

    @pytest.mark.parametrize(
        "old, new",
        [
            ("3.0", " * ".join(["3.0"] * 3000)),
            ("f64; 1024", "f64; " + " + ".join(["1"] * 3000)),
            (_STORE_RHS, "vec" + ".fst" * 3000),
            (_STORE_RHS, "vec" + "[0]" * 3000),
        ],
        ids=["binary-operators", "nat-operators", "projections", "indices"],
    )
    def test_long_operator_chain_is_a_syntax_error(self, old, new):
        """A flat chain parses in a loop but builds a tree as deep as it is
        long, deeper than the recursive passes after the parser can take."""
        text = (EXAMPLES / "scale_vec.descend").read_text().replace(old, new)
        message = f"syntax tree deeper than {MAX_TREE_DEPTH} levels"
        with pytest.raises(DescendSyntaxError, match=message):
            compile_source(text)
        response = LocalBackend().handle(Request(op=OP_CHECK, source=text))
        assert response.error_code == ERR_SYNTAX
        assert message in response.error["message"]
        assert response.diagnostics

    def test_operator_chain_below_the_limit_runs_on_both_engines(self):
        # scale_vec puts the multiplication 14 levels below the function.
        chain = " * ".join(["1.0"] * (MAX_TREE_DEPTH - 20))
        text = (EXAMPLES / "scale_vec.descend").read_text().replace("3.0", chain)
        compiled = compile_source(text)
        assert LocalBackend().handle(Request(op=OP_CHECK, source=text)).ok
        assert "scale_vec" in compiled.to_cuda().full_source()
        runs = {}
        for mode in ("reference", "vectorized"):
            device = GpuDevice(execution_mode=mode)
            buf = device.to_device(np.arange(1024, dtype=np.float64))
            launch = compiled.kernel("scale_vec").launch(device, {"vec": buf})
            assert launch.execution_mode == mode
            runs[mode] = (launch.cycles, device.to_host(buf))
        assert runs["reference"][0] == runs["vectorized"][0]
        for _cycles, result in runs.values():
            assert np.array_equal(result, np.arange(1024, dtype=np.float64))


class TestRoundTrip:
    def test_print_then_reparse_scale(self):
        prog = parse_program(SCALE_SRC + HOST_SRC)
        printed = print_program(prog)
        reparsed = parse_program(printed)
        check_program(reparsed)
        assert [f.name for f in reparsed.fun_defs] == [f.name for f in prog.fun_defs]

    def test_print_then_reparse_builder_programs(self):
        from repro.descend_programs import reduce, transpose

        for program_ in (
            transpose.build_transpose_program(n=32, tile=8, rows=2),
            reduce.build_reduce_program(n=256, block_size=32),
        ):
            printed = print_program(program_)
            reparsed = parse_program(printed)
            check_program(reparsed)

    def test_parsed_program_typechecks_and_rejects_bad_variant(self):
        check_program(parse_program(SCALE_SRC))
        bad = SCALE_SRC.replace("[[block]][[thread]] =", "[[thread]][[block]] =", 1)
        with pytest.raises((DescendTypeError, DescendSyntaxError)):
            check_program(parse_program(bad))
