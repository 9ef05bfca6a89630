"""The CLI parser's declarations, pinned in order.

The rendered --help differs between Python versions, so this pins what
each parser declares instead.  Each argument is the tuple (option strings,
dest, metavar, default, required, choices, help, type function name), in
the order the parser holds them.
"""

import argparse

import pytest

from shifttrellis.cli import build_parser

HELP = (("-h", "--help"), "help", None, argparse.SUPPRESS, False, None,
        "show this help message and exit", None)
OUT = (("--out",), "out", "FILE", None, False, None,
       "write output here instead of stdout", None)
PLAN = (("--plan",), "plan", "PLAN_FILE", None, True, None, None, None)


def positional(dest, metavar):
    return ((), dest, metavar, None, True, None, None, None)


def fmt(*choices):
    return (("--format",), "format", None, "text", False, choices, None, None)


def n_blocks(default=None, required=False, help=None):
    return (("--n-blocks",), "n_blocks", "N", default, required, None, help,
            "_count")


G = positional("g", "G_FILE")
H = positional("h", "H_FILE")
Z = positional("z", "Z_FILE")
TEXT_JSON = fmt("text", "json")

# name: (help in the command list, function, arguments)
SUBCOMMANDS = {
    "check-gh": ("check G*H^T = 0 and full row rank", "cmd_check_gh",
                 [HELP, G, H, TEXT_JSON, OUT]),
    "suggest": ("backward-shift exponents and best found plan",
                "cmd_suggest",
                [HELP, G, H,
                 (("--max-exponent",), "max_exponent", None, 4, False, None,
                  "plan search bound (default 4)", "_count"),
                 TEXT_JSON, OUT]),
    "transform": ("apply a shift plan to a pair", "cmd_transform",
                  [HELP, G, H, PLAN, TEXT_JSON, OUT]),
    "reduce": ("apply a plan and row-reduce, with a full report",
               "cmd_reduce",
               [HELP, G, H, PLAN, TEXT_JSON, OUT]),
    "code-trellis": ("build the encoder trellis", "cmd_code_trellis",
                     [HELP, G, n_blocks(required=True),
                      fmt("text", "json", "dot"), OUT]),
    "error-trellis": ("build the syndrome-former trellis",
                      "cmd_error_trellis",
                      [HELP, H, positional("syndrome", "SYNDROME_FILE"),
                       n_blocks(help="real blocks before the flush "
                                     "(default: infer)"),
                       fmt("text", "json", "dot"), OUT]),
    "decode": ("min-weight error estimate for received data", "cmd_decode",
               [HELP, H, Z, n_blocks(), TEXT_JSON, OUT]),
    "verify": ("end-to-end simultaneous-reduction check", "cmd_verify",
               [HELP, G, H, Z, PLAN, n_blocks(), TEXT_JSON, OUT]),
    "oracle": ("trellis path sets against brute-force sets", "cmd_oracle",
               [HELP, G, H, n_blocks(default=4),
                (("--trials",), "trials", None, 20, False, None, None,
                 "_count"),
                (("--seed",), "seed", None, 0, False, None, None, "int"),
                fmt("text"), OUT]),
}


def declarations(parser):
    return [(tuple(a.option_strings), a.dest, a.metavar, a.default,
             a.required, tuple(a.choices) if a.choices else None, a.help,
             getattr(a.type, "__name__", None))
            for a in parser._actions]


def subparsers():
    ap = build_parser()
    actions = [a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction)]
    assert len(actions) == 1
    return actions[0]


def test_top_parser_declarations():
    ap = build_parser()
    assert ap.prog == "shifttrellis"
    assert ap.description == ("Simultaneous code/error trellis reduction "
                              "for binary convolutional codes.")
    sub = subparsers()
    assert declarations(ap)[:1] == [HELP]
    assert ap._actions[1:] == [sub]
    assert (sub.dest, sub.required, sub.metavar, sub.help) == (
        "command", True, None, None)
    assert [(c.dest, c.help) for c in sub._choices_actions] == [
        (name, spec[0]) for name, spec in SUBCOMMANDS.items()]
    assert list(sub.choices) == list(SUBCOMMANDS)


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_subcommand_declarations(name):
    _, func, arguments = SUBCOMMANDS[name]
    parser = subparsers().choices[name]
    assert parser.prog == f"shifttrellis {name}"
    assert parser.description is None
    assert parser.get_default("func").__name__ == func
    assert declarations(parser) == arguments


def test_parser_is_built_once():
    assert build_parser() is build_parser()
