"""Markov-chain activity prediction over an ontology-structured RDF graph.

The package turns daily location observations into a BFO/CCO-shaped
knowledge graph, queries location sequences and transitions back out of it,
estimates first- and second-order transition matrices, and writes the
resulting probabilities back into the graph under two competing modeling
styles.
"""

__version__ = "0.1.0"
