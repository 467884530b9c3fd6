"""The bipartite fact/value graph of Section IV.

Construction rules (verbatim from the paper):

* for each relation ``R``, attribute ``A`` and non-null value ``a`` occurring
  in ``R(D)``, add a value node ``u(R, A, a)``;
* for each fact ``f = R(a1, ..., ak)`` add a fact node ``v(f)`` and edges
  between ``v(f)`` and ``u(R, Ai, ai)`` for every non-null ``ai``;
* for each foreign key ``R[B1..Bl] ⊆ S[C1..Cl]``, identify ``u(R, Bi, a)``
  with ``u(S, Ci, a)`` for every value ``a``.

The identification is implemented by grouping attribute positions connected
through foreign keys with a union-find; a value node's identity is then
``(attribute-group, value)``, so two occurrences of the same value in
FK-linked columns share one node while equal values in unrelated columns do
not (the "Universal" example in the paper).

The graph supports incremental extension: :meth:`add_fact` appends nodes for
a newly inserted fact without renumbering existing nodes, which is what the
dynamic Node2Vec extension requires.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Hashable, Iterable, Sequence

import networkx as nx

from repro.db.database import Database, Fact
from repro.db.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine import CompiledDatabase, WalkEngine


class _UnionFind:
    """Minimal union-find over hashable items."""

    def __init__(self) -> None:
        self._parent: dict[Hashable, Hashable] = {}

    def find(self, item: Hashable) -> Hashable:
        # Iterative two-pass find with path compression: the recursive
        # variant can exceed the interpreter recursion limit on long chains
        # of foreign-key identifications.
        parent = self._parent.setdefault(item, item)
        root = item
        while parent != root:
            root = parent
            parent = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Hashable, b: Hashable) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a != root_b:
            self._parent[root_b] = root_a


class DatabaseGraph:
    """Bipartite fact/value graph with foreign-key value-node identification."""

    def __init__(
        self,
        db: Database,
        schema: Schema | None = None,
        identify_foreign_keys: bool = True,
        engine: "WalkEngine | CompiledDatabase | None" = None,
    ):
        self.db = db
        self.schema = schema or db.schema
        self.identify_foreign_keys = identify_foreign_keys
        if identify_foreign_keys:
            self._groups = self._build_attribute_groups(self.schema)
        else:
            # Ablation mode: every column keeps its own value nodes, so equal
            # values in FK-linked columns are NOT merged (Section IV argues
            # this loses the reference semantics).
            self._groups = {
                (rel.name, attr.name): (rel.name, attr.name)
                for rel in self.schema
                for attr in rel.attributes
            }
        self._node_keys: list[tuple] = []
        self._node_index: dict[tuple, int] = {}
        self._adjacency: list[list[int]] = []
        self._fact_nodes: dict[int, int] = {}
        if engine is not None:
            compiled = getattr(engine, "compiled", engine)
            if compiled.db is not db:
                raise ValueError("engine is compiled from a different database")
            compiled.refresh()
            self._build_from_compiled(compiled)
        else:
            for fact in db:
                self.add_fact(fact)

    # ------------------------------------------------------------ structure

    @staticmethod
    def _build_attribute_groups(schema: Schema) -> dict[tuple[str, str], Hashable]:
        """Map every (relation, attribute) to its FK-identification group."""
        uf = _UnionFind()
        for rel in schema:
            for attr in rel.attributes:
                uf.find((rel.name, attr.name))
        for fk in schema.foreign_keys:
            for src_attr, tgt_attr in zip(fk.source_attrs, fk.target_attrs):
                uf.union((fk.source, src_attr), (fk.target, tgt_attr))
        return {
            (rel.name, attr.name): uf.find((rel.name, attr.name))
            for rel in schema
            for attr in rel.attributes
        }

    def _build_from_compiled(self, compiled: "CompiledDatabase") -> None:
        """Construction from a compiled database's dictionary-encoded columns.

        Produces exactly the same graph — including node numbering and
        adjacency order — as per-fact :meth:`add_fact` over the whole
        database, but value nodes are resolved through per-column code
        tables, so each distinct value is hashed once per column instead of
        once per occurrence.
        """
        # per (relation, attribute): codes and vocabulary as lists, read once,
        # and the value-node index per code, filled in on first occurrence
        # to preserve node creation order
        columns = {
            (rel_name, attr_name): (
                column.codes.tolist(), column.vocab.tolist(), [None] * column.vocab.size
            )
            for rel_name, compiled_rel in compiled.relations.items()
            for attr_name, column in compiled_rel.columns.items()
        }
        for fact in self.db:
            compiled_rel = compiled.relations[fact.relation]
            row = compiled_rel.row_of[fact.fact_id]
            fact_node = self._intern_node(("fact", fact.fact_id))
            self._fact_nodes[fact.fact_id] = fact_node
            for attr_name in compiled_rel.schema.attribute_names:
                column_key = (fact.relation, attr_name)
                codes, vocab, table = columns[column_key]
                code = codes[row]
                if code < 0:
                    continue
                value_node = table[code]
                if value_node is None:
                    group = self._groups[column_key]
                    value_node = self._intern_node(("value", group, vocab[code]))
                    table[code] = value_node
                self._add_edge(fact_node, value_node)

    def _intern_node(self, key: tuple) -> int:
        index = self._node_index.get(key)
        if index is None:
            index = len(self._node_keys)
            self._node_index[key] = index
            self._node_keys.append(key)
            self._adjacency.append([])
        return index

    def _add_edge(self, a: int, b: int) -> None:
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)

    # ----------------------------------------------------------- public API

    def add_fact(self, fact: Fact) -> list[int]:
        """Add the node ``v(fact)`` and its value nodes/edges.

        Returns the indices of all nodes *created* by this call (the fact
        node plus any value nodes not present before), in creation order.
        The dynamic extension uses exactly this list as the set of trainable
        (non-frozen) nodes.
        """
        if fact.fact_id in self._fact_nodes:
            return []
        before = len(self._node_keys)
        fact_node = self._intern_node(("fact", fact.fact_id))
        self._fact_nodes[fact.fact_id] = fact_node
        for attr_name, value in zip(fact.schema.attribute_names, fact.values):
            if value is None:
                continue
            group = self._groups[(fact.relation, attr_name)]
            value_node = self._intern_node(("value", group, value))
            self._add_edge(fact_node, value_node)
        return list(range(before, len(self._node_keys)))

    @property
    def num_nodes(self) -> int:
        return len(self._node_keys)

    @property
    def num_edges(self) -> int:
        return sum(len(neighbors) for neighbors in self._adjacency) // 2

    def neighbors(self, node: int) -> Sequence[int]:
        return self._adjacency[node]

    def degree(self, node: int) -> int:
        return len(self._adjacency[node])

    def fact_node(self, fact: Fact | int) -> int:
        """The graph node index of a fact (by Fact or by fact id)."""
        fact_id = fact.fact_id if isinstance(fact, Fact) else int(fact)
        return self._fact_nodes[fact_id]

    def has_fact(self, fact: Fact | int) -> bool:
        fact_id = fact.fact_id if isinstance(fact, Fact) else int(fact)
        return fact_id in self._fact_nodes

    def fact_nodes(self, facts: Iterable[Fact] | None = None) -> list[int]:
        if facts is None:
            return list(self._fact_nodes.values())
        return [self.fact_node(f) for f in facts]

    def value_node(self, relation: str, attribute: str, value: Any) -> int | None:
        """The node index of ``u(relation, attribute, value)`` if it exists."""
        group = self._groups.get((relation, attribute))
        if group is None:
            return None
        return self._node_index.get(("value", group, value))

    def node_key(self, node: int) -> tuple:
        """The descriptive key of a node (``("fact", id)`` or ``("value", ...)``)."""
        return self._node_keys[node]

    def is_fact_node(self, node: int) -> bool:
        return self._node_keys[node][0] == "fact"

    def to_networkx(self) -> nx.Graph:
        """A NetworkX view of the graph (for analysis and debugging)."""
        graph = nx.Graph()
        for index, key in enumerate(self._node_keys):
            graph.add_node(index, key=key, kind=key[0])
        for node, neighbors in enumerate(self._adjacency):
            for neighbor in neighbors:
                if neighbor >= node:
                    graph.add_edge(node, neighbor)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatabaseGraph(nodes={self.num_nodes}, edges={self.num_edges})"
