"""Bad fixture: registration from outside the registry's owning package."""

from repro.lint.rules import register_rule


class RogueRule:
    name = "rogue"


register_rule(RogueRule())
