"""Validation rules and oracle (§IV, Definitions 10–11).

A human expert rules out semantically impossible value combinations (the
paper's example: ``{gender=Male, isPregnant=True}``).  A
:class:`ValidationRule` is a conjunction of per-attribute value sets; a
pattern *satisfies* a rule when every clause holds.  The
:class:`ValidationOracle` declares a combination valid when it satisfies
**none** of its rules.  GREEDY's tree search consults it before generating
each child, and GREEDY's combination grid classifies every combination at
once, so only valid combinations are ever proposed.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Sequence, Tuple

import numpy as np

from repro.core.pattern import Pattern
from repro.exceptions import ValidationError


class ValidationRule:
    """One forbidden conjunction: ``{⟨A_i, V_i⟩, ...}`` (Definition 10).

    Args:
        clauses: mapping or iterable of ``(attribute index, values)`` pairs;
            a pattern satisfies the rule when, for every pair, its value at
            that attribute is in the value set.
    """

    __slots__ = ("_clauses",)

    def __init__(self, clauses) -> None:
        items: Iterable
        if isinstance(clauses, dict):
            items = clauses.items()
        else:
            items = clauses
        normalized = []
        seen = set()
        for attribute, values in items:
            attribute = int(attribute)
            if attribute < 0:
                raise ValidationError(f"negative attribute index {attribute}")
            if attribute in seen:
                raise ValidationError(f"attribute {attribute} appears twice in rule")
            seen.add(attribute)
            if isinstance(values, int):
                values = (values,)
            value_set = frozenset(int(v) for v in values)
            if not value_set:
                raise ValidationError(f"empty value set for attribute {attribute}")
            normalized.append((attribute, value_set))
        if not normalized:
            raise ValidationError("a validation rule needs at least one clause")
        normalized.sort()
        self._clauses: Tuple[Tuple[int, FrozenSet[int]], ...] = tuple(normalized)

    @property
    def clauses(self) -> Tuple[Tuple[int, FrozenSet[int]], ...]:
        return self._clauses

    @property
    def max_attribute(self) -> int:
        """Highest attribute index referenced; drives prefix checks."""
        return self._clauses[-1][0]

    def satisfied_by(self, pattern: Pattern) -> bool:
        """Definition 10: every clause holds (``X`` never satisfies a clause)."""
        return all(pattern[attribute] in values for attribute, values in self._clauses)

    def satisfied_by_values(self, values: Sequence[int]) -> bool:
        """Same check against a full value combination."""
        return all(values[attribute] in allowed for attribute, allowed in self._clauses)

    def satisfied_by_prefix(self, prefix: Sequence[int]) -> bool:
        """True when the assigned prefix already satisfies every clause.

        Only meaningful when all clause attributes are within the prefix;
        the GREEDY tree search uses this to refuse to generate children that
        can only lead to invalid combinations.
        """
        if self.max_attribute >= len(prefix):
            return False
        return self.satisfied_by_values(prefix)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"A{attribute}∈{sorted(values)}" for attribute, values in self._clauses
        )
        return f"ValidationRule({parts})"


class ValidationOracle:
    """A collection of validation rules (Definition 11).

    ``is_valid`` returns True when the pattern/combination satisfies none of
    the rules.

    ``queries`` counts the questions asked: one per :meth:`is_valid`,
    :meth:`is_valid_values` or :meth:`invalidates_prefix` call (Algorithm
    4 asks one per child it considers), and one per combination that
    :meth:`valid_combinations` classifies (``Π c_i`` per call).
    """

    def __init__(self, rules: Iterable[ValidationRule] = ()) -> None:
        self._rules = list(rules)
        self.queries = 0

    @classmethod
    def permissive(cls) -> "ValidationOracle":
        """An oracle with no rules — everything is valid."""
        return cls()

    @classmethod
    def from_named_rules(cls, schema, rules: Iterable[Dict[str, Iterable]]) -> "ValidationOracle":
        """Build from attribute *names* and value *labels*.

        Example::

            ValidationOracle.from_named_rules(schema, [
                {"marital_status": ["unknown"]},
                {"age": ["<20"], "marital_status": ["married", "widowed"]},
            ])
        """
        built = []
        for rule in rules:
            clauses = []
            for name, labels in rule.items():
                attribute = schema.index_of(name)
                values = []
                for label in labels:
                    if isinstance(label, int):
                        values.append(label)
                    else:
                        if schema.value_labels is None:
                            raise ValidationError(
                                f"schema has no value labels; use integer values"
                            )
                        try:
                            values.append(schema.value_labels[attribute].index(label))
                        except ValueError:
                            raise ValidationError(
                                f"unknown value {label!r} for attribute {name!r}"
                            ) from None
                clauses.append((attribute, values))
            built.append(ValidationRule(clauses))
        return cls(built)

    @property
    def rules(self) -> Tuple[ValidationRule, ...]:
        return tuple(self._rules)

    def add_rule(self, rule: ValidationRule) -> None:
        self._rules.append(rule)

    def check_space(self, space) -> None:
        """Raise :class:`ValidationError` for a rule naming an attribute
        outside ``space``; the searches call this once, before they start."""
        for rule in self._rules:
            if rule.max_attribute >= space.d:
                raise ValidationError(
                    f"{rule!r} names attribute {rule.max_attribute}, but the "
                    f"pattern space has {space.d} attributes"
                )

    def is_valid(self, pattern: Pattern) -> bool:
        """Definition 11: valid iff no rule is satisfied."""
        self.queries += 1
        return not any(rule.satisfied_by(pattern) for rule in self._rules)

    def is_valid_values(self, values: Sequence[int]) -> bool:
        """Validity of a full value combination."""
        self.queries += 1
        return not any(rule.satisfied_by_values(values) for rule in self._rules)

    def valid_combinations(self, cardinalities: Sequence[int]) -> np.ndarray:
        """Definition 11 for every value combination of a space at once.

        Returns a flat ``bool`` array over the ``Π c_i`` combinations in
        combination-index order (attribute 0 the most significant digit),
        True where the combination satisfies no rule.  Every rule must name
        attributes of the space (:meth:`check_space`).
        """
        shape = tuple(cardinalities)
        valid = np.ones(shape, dtype=bool)
        for rule in self._rules:
            satisfied = np.ones((1,) * len(shape), dtype=bool)
            for attribute, values in rule.clauses:
                axis = [1] * len(shape)
                axis[attribute] = shape[attribute]
                member = np.isin(np.arange(shape[attribute]), sorted(values))
                satisfied = satisfied & member.reshape(axis)
            valid &= ~satisfied
        self.queries += valid.size
        return valid.reshape(-1)

    def invalidates_prefix(self, prefix: Sequence[int]) -> bool:
        """True when every extension of ``prefix`` is invalid.

        This happens as soon as one rule is already fully satisfied by the
        assigned attributes (clauses are conjunctions over fixed values, so
        later attributes cannot un-satisfy them).
        """
        self.queries += 1
        return any(rule.satisfied_by_prefix(prefix) for rule in self._rules)

    def __len__(self) -> int:
        return len(self._rules)
