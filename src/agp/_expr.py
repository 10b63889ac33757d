"""Safe parser for the call-style values used in benchmark configs.

Accepts expressions like ``quadratic(seed=7, nx=2, regime=nc_sc)`` or
``box(lower=[0, 0], upper=[1, 1])`` and nested calls.  Bare identifiers
evaluate to their own name as a string; numbers and lists evaluate to
Python values.  Nothing else is allowed.
"""

from __future__ import annotations

import ast

__all__ = ["parse_value"]


def _eval_node(node):
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float, str, bool)):
            return node.value
        raise ValueError(f"unsupported constant {node.value!r}")
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        val = _eval_node(node.operand)
        if not isinstance(val, (int, float)):
            raise ValueError("unary sign on a non-number")
        return -val if isinstance(node.op, ast.USub) else val
    if isinstance(node, (ast.List, ast.Tuple)):
        return [_eval_node(e) for e in node.elts]
    if isinstance(node, ast.Call):
        return _CallValue(*_unpack_call(node))
    raise ValueError(f"unsupported syntax: {ast.dump(node)}")


class _CallValue:
    """A parsed ``name(args..., key=value...)`` form."""

    def __init__(self, name, args, kwargs):
        self.name = name
        self.args = args
        self.kwargs = kwargs

    def __repr__(self):
        return f"_CallValue({self.name!r}, {self.args!r}, {self.kwargs!r})"


def _unpack_call(node: ast.Call):
    if not isinstance(node.func, ast.Name):
        raise ValueError("only simple call names are allowed")
    args = [_eval_node(a) for a in node.args]
    kwargs = {}
    for kw in node.keywords:
        if kw.arg is None:
            raise ValueError("**kwargs not allowed")
        kwargs[kw.arg] = _eval_node(kw.value)
    return node.func.id, args, kwargs


def parse_value(text: str):
    """Parse a config value: number, list, identifier, or call form."""
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as e:
        raise ValueError(f"malformed value {text!r}: {e.msg}") from None
    return _eval_node(tree.body)
