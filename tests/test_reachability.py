"""Every top-level function and class of the package serves something in
the package: another function refers to it, or ``__all__`` exports it."""

import ast
from pathlib import Path

import storage_pricer

SOURCE = Path(storage_pricer.__file__).parent

# Kept although nothing in the package refers to them yet, each for the
# later use its reason names.
ALLOWED = {
    "export_system_csv": "the CLI is to write a system out, and a system written out must load back",
    "theta_sigma_derivative": "the closed-form d theta / d sigma that a sigma-sensitivity oracle compares against",
    "interior_charging_theta": "the interior-charging price that the same oracle differentiates",
}


def referenced_names(node):
    """The names that ``node`` refers to, as names or as attributes."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def unreferenced_definitions():
    """Names of top-level functions and classes of the package's modules that
    no code of the package refers to outside their own definition and that no
    ``__all__`` lists."""
    statements = [node for path in sorted(SOURCE.glob("*.py")) for node in ast.parse(path.read_text()).body]
    exported = {elt.value for node in statements if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name) and target.id == "__all__"
                for elt in node.value.elts}
    names = [(node, referenced_names(node)) for node in statements]
    return sorted(node.name for node in statements
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in exported
                  and not any(node.name in used for other, used in names if other is not node))


def test_every_definition_is_reached_or_allowed():
    assert unreferenced_definitions() == sorted(ALLOWED)
