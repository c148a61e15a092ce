"""Good fixture: unconditional top-level registration in the owner."""

_RULES = {}


def register_rule(rule):
    _RULES[rule.name] = rule
    return rule


class NoopRule:
    name = "noop"


class FallbackRule:
    name = "fallback"


register_rule(NoopRule())
FALLBACK = register_rule(FallbackRule())
