"""Command-line interface: run workflows, check conformance, demo leakage.

All command output is JSON on stdout; diagnostics go to stderr. Exit codes:
0 success, 1 failed conformance checks (a demo never exits 1: its verdict is
`direction_confirmed`), 2 workflow spec errors, 3 guard rejections, 4 data errors.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from typing import get_args

import click

from .demo import DEMO_KINDS, demo_leakage
from .conformance import run_conformance
from .errors import WorkflowError
from .registry import GuardMode, ProvenanceRegistry
from .workflow import classify_exit, execute_workflow, load_workflow


@click.group()
@click.option(
    "--guards",
    type=click.Choice(get_args(GuardMode)),
    default=None,
    help="Override guard enforcement for this invocation.",
)
@click.option(
    "--registry-dump",
    is_flag=True,
    default=False,
    help="Dump the session registry as JSON to stderr after the command.",
)
@click.pass_context
def main(ctx: click.Context, guards: str | None, registry_dump: bool) -> None:
    """Leakage-guarded machine-learning workflows."""
    ctx.ensure_object(dict)
    ctx.obj["guards"] = guards
    ctx.obj["registry_dump"] = registry_dump


def _fail(exc: Exception) -> None:
    code = classify_exit(exc)
    payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    click.echo(json.dumps(payload), err=True)
    sys.exit(code)


@main.command()
@click.argument("workflow_file", type=click.Path())
@click.pass_context
def run(ctx: click.Context, workflow_file: str) -> None:
    """Execute a declarative workflow file and print its report."""
    registry = ProvenanceRegistry()
    try:
        spec = load_workflow(workflow_file)
        if ctx.obj.get("guards") is not None:
            spec = dataclasses.replace(spec, guards=ctx.obj["guards"])
        report = execute_workflow(spec, registry=registry)
    except (WorkflowError, OSError, UnicodeDecodeError) as exc:
        if ctx.obj.get("registry_dump"):
            click.echo(registry.dump_json(), err=True)
        _fail(exc)
        return
    click.echo(report.to_json())
    if ctx.obj.get("registry_dump"):
        click.echo(registry.dump_json(), err=True)


@main.command()
def conformance() -> None:
    """Run the eight conformance checks; exit 0 only if all pass."""
    report = run_conformance()
    click.echo(json.dumps(report, indent=2))
    sys.exit(0 if report["passed"] else 1)


@main.command()
@click.argument("kind", type=click.Choice(list(DEMO_KINDS)))
@click.option("--replicates", type=int, default=50, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--n-seeds", type=int, default=10, show_default=True,
    help="Seeds tried by the leaky arm of seed_selection.",
)
def demo(kind: str, replicates: int, seed: int, n_seeds: int) -> None:
    """Compare an honest protocol against a guards-off leaky protocol."""
    try:
        report = demo_leakage(kind, replicates=replicates, seed=seed, n_seeds=n_seeds)
    except WorkflowError as exc:
        _fail(exc)
        return
    click.echo(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
