"""List every function in src/modelspace that takes a defaulted parameter.

    python3 tools/signatures.py > signatures.txt

Prints ``module.qualname(p=default, ...)`` for each such ``def``, in file
order, and ends with ``total <k>``, the number of defaulted parameters: the
values a caller can set beyond the required ones.  Reads the source with
``ast`` only, so it runs on any tree without importing it; a change that
removes options cites the plain ``diff`` of two trees' outputs.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "modelspace"


def defaults(args):
    positional = args.posonlyargs + args.args
    pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    return pairs + [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def walk(node, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, defaults(child.args)
            yield from walk(child, name)


total = 0
for path in sorted(SRC.glob("*.py")):
    for name, pairs in walk(ast.parse(path.read_text()), path.stem):
        if pairs:
            total += len(pairs)
            print(f"{name}({', '.join(f'{a.arg}={ast.unparse(d)}' for a, d in pairs)})")
print(f"total {total}")
