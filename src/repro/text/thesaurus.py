"""Thesaurus with synonym sets and abbreviation expansion.

One of Harmony's match voters *"expands the elements' names using a
thesaurus"* (Section 4).  Since WordNet is not available offline we ship a
compact built-in thesaurus biased toward data-modeling and the paper's
domains (commerce, personnel, air traffic control), and the class accepts
user-supplied synonym sets so domain thesauri can be plugged in.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple

#: Built-in synonym sets.  Every word in a set is considered an exact
#: synonym of every other word in that set.
DEFAULT_SYNSETS: Tuple[FrozenSet[str], ...] = tuple(
    frozenset(group)
    for group in [
        # people & organizations
        {"person", "individual", "people", "human"},
        {"employee", "worker", "staff", "personnel"},
        {"customer", "client", "buyer", "purchaser", "patron"},
        {"vendor", "supplier", "seller", "provider"},
        {"company", "organization", "organisation", "firm", "corporation",
         "enterprise", "business"},
        {"department", "division", "unit", "section", "branch"},
        {"manager", "supervisor", "boss", "lead"},
        {"student", "pupil", "learner"},
        {"professor", "instructor", "teacher", "faculty", "lecturer"},
        # names & identity
        {"name", "title", "label", "designation"},
        {"id", "identifier", "key", "number", "code"},
        {"ssn", "social"},
        # commerce
        {"order", "purchase", "po"},
        {"item", "product", "good", "article", "merchandise"},
        {"line", "detail", "entry"},
        {"price", "cost", "amount", "charge", "fee"},
        {"total", "sum", "aggregate"},
        {"quantity", "count", "qty", "number"},
        {"invoice", "bill", "statement"},
        {"payment", "remittance"},
        {"discount", "rebate", "reduction"},
        {"tax", "levy", "duty"},
        {"ship", "shipping", "shipment", "delivery", "dispatch", "freight"},
        {"address", "location", "residence"},
        {"city", "town", "municipality"},
        {"state", "province", "region"},
        {"country", "nation"},
        {"zip", "postcode", "postal"},
        # time
        {"date", "day", "time"},
        {"birthdate", "birthday", "dob", "born"},
        {"start", "begin", "commence", "initiate"},
        {"end", "finish", "stop", "terminate", "complete"},
        {"year", "annual", "yearly"},
        # money & employment
        {"salary", "wage", "pay", "compensation", "earnings"},
        {"account", "acct"},
        {"balance", "remainder"},
        # air traffic control (the paper's running domain)
        {"aircraft", "airplane", "plane", "airframe"},
        {"airport", "aerodrome", "airfield"},
        {"runway", "airstrip", "strip"},
        {"flight", "sortie"},
        {"route", "routing", "path", "course", "airway"},
        {"facility", "installation", "site"},
        {"weather", "meteorology", "metar"},
        {"arrival", "arrive", "inbound"},
        {"departure", "depart", "outbound"},
        {"carrier", "airline", "operator"},
        {"altitude", "elevation", "height", "level"},
        {"speed", "velocity"},
        {"destination", "dest"},
        {"origin", "source"},
        # generic modeling vocabulary
        {"type", "kind", "category", "class", "classification"},
        {"status", "state", "condition"},
        {"description", "definition", "comment", "remark", "note", "text"},
        {"phone", "telephone", "tel"},
        {"email", "mail"},
        {"first", "given", "fore"},
        {"last", "family", "sur"},
        {"middle", "mid"},
    ]
)

#: Common schema abbreviations, expanded before synonym lookup.
DEFAULT_ABBREVIATIONS: Mapping[str, str] = {
    "acct": "account",
    "addr": "address",
    "amt": "amount",
    "avg": "average",
    "bal": "balance",
    "bday": "birthday",
    "cat": "category",
    "cd": "code",
    "co": "company",
    "cnt": "count",
    "ctry": "country",
    "cust": "customer",
    "dept": "department",
    "desc": "description",
    "descr": "description",
    "dest": "destination",
    "dob": "birthdate",
    "dt": "date",
    "emp": "employee",
    "fname": "firstname",
    "freq": "frequency",
    "govt": "government",
    "hr": "hour",
    "lname": "lastname",
    "loc": "location",
    "max": "maximum",
    "mgr": "manager",
    "min": "minimum",
    "mo": "month",
    "msg": "message",
    "no": "number",
    "nbr": "number",
    "num": "number",
    "org": "organization",
    "ord": "order",
    "pct": "percent",
    "phn": "phone",
    "po": "purchaseorder",
    "prod": "product",
    "qty": "quantity",
    "rte": "route",
    "sal": "salary",
    "seq": "sequence",
    "sess": "session",
    "ssn": "socialsecuritynumber",
    "st": "state",
    "std": "standard",
    "tel": "telephone",
    "tot": "total",
    "txn": "transaction",
    "typ": "type",
    "usr": "user",
    "val": "value",
    "wt": "weight",
    "yr": "year",
    "zip": "zipcode",
}


class Thesaurus:
    """Synonym lookup with abbreviation expansion.

    >>> t = Thesaurus.default()
    >>> t.are_synonyms("vendor", "supplier")
    True
    >>> t.expand_abbreviation("qty")
    'quantity'
    """

    def __init__(
        self,
        synsets: Iterable[Iterable[str]] = (),
        abbreviations: Mapping[str, str] = (),
    ) -> None:
        self._synset_of: Dict[str, Set[str]] = {}
        self._abbreviations: Dict[str, str] = dict(abbreviations or {})
        #: bumped on every addition, so token caches keyed on this
        #: thesaurus (the engine's feature tables) see it change
        self.revision = 0
        for group in synsets:
            self.add_synset(group)

    @classmethod
    def default(cls) -> "Thesaurus":
        """The built-in thesaurus shipped with this library."""
        return cls(DEFAULT_SYNSETS, DEFAULT_ABBREVIATIONS)

    @classmethod
    def empty(cls) -> "Thesaurus":
        return cls()

    # -- construction ------------------------------------------------------

    def add_synset(self, words: Iterable[str]) -> None:
        """Add a synonym set, merging with any overlapping existing sets."""
        group: Set[str] = {w.lower() for w in words}
        merged = set(group)
        for word in group:
            existing = self._synset_of.get(word)
            if existing is not None:
                merged |= existing
        for word in merged:
            self._synset_of[word] = merged
        self.revision += 1

    def add_abbreviation(self, short: str, full: str) -> None:
        self._abbreviations[short.lower()] = full.lower()
        self.revision += 1

    # -- lookup ---------------------------------------------------------------

    def expand_abbreviation(self, token: str) -> str:
        """Expand a known abbreviation, else return the token unchanged."""
        return self._abbreviations.get(token.lower(), token.lower())

    def synonyms(self, word: str) -> Set[str]:
        """All synonyms of *word* (including itself), after abbreviation
        expansion."""
        word = self.expand_abbreviation(word)
        return set(self._synset_of.get(word, {word}))

    def are_synonyms(self, a: str, b: str) -> bool:
        a = self.expand_abbreviation(a)
        b = self.expand_abbreviation(b)
        if a == b:
            return True
        return b in self._synset_of.get(a, ())

    def expand_tokens(self, tokens: Iterable[str]) -> List[str]:
        """Expand a token stream into tokens + all their synonyms (dedup,
        order-preserving)."""
        seen: Set[str] = set()
        out: List[str] = []
        for token in tokens:
            for word in sorted(self.synonyms(token)):
                if word not in seen:
                    seen.add(word)
                    out.append(word)
        return out

    def __len__(self) -> int:
        return len({id(s) for s in self._synset_of.values()})
