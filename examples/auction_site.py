"""Auction-site analytics — the Table 3 XMark queries, plus verified mode.

Generates XMark-like substructure records (items, people, auctions),
indexes them with ViST, runs Table 3's Q6–Q8, and contrasts raw ViST
matching with the verified (tree-embedding-checked) mode on a query
shape where raw matching over-reports — the soundness caveat DESIGN.md
documents.

Run:  python examples/auction_site.py
"""

from repro import SequenceEncoder, VistIndex, XmarkConfig, XmarkGenerator, XmlNode
from repro.datasets.xmark import TARGET_DATE

N_RECORDS = 600


def main():
    config = XmarkConfig(
        seed=7, us_rate=0.3, target_date_rate=0.15,
        pocatello_rate=0.1, person1_rate=0.2,
    )
    generator = XmarkGenerator(config)
    index = VistIndex(SequenceEncoder())
    for record in generator.records(N_RECORDS):
        index.add(record)
    print(f"indexed {N_RECORDS} auction-site substructure records")

    queries = [
        (
            "Q6 US items with mail on the target date",
            f"/site//item[location='US']/mail/date[text='{TARGET_DATE}']",
        ),
        (
            "Q7 people in Pocatello",
            "/site//person/*/city[text='Pocatello']",
        ),
        (
            "Q8 closed auctions involving person1 on the target date",
            f"//closed_auction[*[person='person1']]/date[text='{TARGET_DATE}']",
        ),
    ]
    for title, xpath in queries:
        raw = index.query(xpath)
        verified = index.query(xpath, verify=True)
        print(f"{title}\n    {xpath}")
        print(f"    raw ViST matching : {len(raw)} records")
        print(f"    verified (exact)  : {len(verified)} records")

    # The classic false-positive shape: branches satisfied by *different*
    # sibling subtrees.  Raw subsequence matching accepts it; the
    # verification pass rejects it.
    print("\n-- soundness caveat demo --")
    adversarial = XmlNode("A")
    adversarial.element("B").element("C")
    adversarial.element("B").element("D")
    genuine = XmlNode("A")
    both = genuine.element("B")
    both.element("C")
    both.element("D")
    demo = VistIndex()
    fp_id = demo.add(adversarial)
    tp_id = demo.add(genuine)
    xpath = "/A/B[C][D]"
    print(f"query {xpath}")
    print(f"    raw      -> {demo.query(xpath)}   (doc {fp_id} is a false positive)")
    print(f"    verified -> {demo.query(xpath, verify=True)}   (only doc {tp_id})")


if __name__ == "__main__":
    main()
