"""Bad fixture: conditional and lazy registration inside the owning package."""

_RULES = {}


def register_rule(rule):
    _RULES[rule.name] = rule
    return rule


class NoopRule:
    name = "noop"


if True:
    register_rule(NoopRule())


def _late():
    register_rule(NoopRule())
