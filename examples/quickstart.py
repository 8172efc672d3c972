"""Quickstart: index the paper's purchase records and run its queries.

Builds the Figure 1/Figure 3 world — purchase records with sellers,
buyers, items and sub-items — indexes them with ViST, and runs the four
queries of Figure 2, including the branching, ``*`` and ``//`` forms
that path-at-a-time indexes need joins for.

Run:  python examples/quickstart.py
"""

from repro import VistIndex, XmlNode

def make_purchase(seller_loc, buyer_loc, manufacturers, nested=None):
    """One purchase record; ``nested`` adds a sub-item to the first item."""
    purchase = XmlNode("purchase")
    seller = purchase.element(
        "seller", name=f"seller-in-{seller_loc}", location=seller_loc
    )
    for i, maker in enumerate(manufacturers):
        item = seller.element("item")
        item.element("manufacturer", text=maker)
        if i == 0 and nested:
            item.element("item").element("manufacturer", text=nested)
    purchase.element("buyer", name=f"buyer-in-{buyer_loc}", location=buyer_loc)
    return purchase


def main():
    # Siblings sort by label (paper Section 2's order when no DTD is
    # given), so the index needs nothing but the records.
    index = VistIndex()

    orders = [
        make_purchase("boston", "newyork", ["intel", "ibm"]),
        make_purchase("boston", "losangeles", ["amd"], nested="intel"),
        make_purchase("seattle", "newyork", ["samsung"]),
        make_purchase("boston", "newyork", [], nested=None),
    ]
    ids = [index.add(order) for order in orders]
    print(f"indexed {len(ids)} purchase records -> doc ids {ids}")

    queries = {
        "Q1  manufacturers of sold items": "/purchase/seller/item/manufacturer",
        "Q2  boston seller AND newyork buyer": (
            "/purchase[seller[location='boston']]/buyer[location='newyork']"
        ),
        "Q3  boston seller OR buyer (via *)": "/purchase/*[location='boston']",
        "Q4  intel anywhere (items or sub-items)": (
            "/purchase//item[manufacturer='intel']"
        ),
    }
    for title, xpath in queries.items():
        result = index.query(xpath)
        print(f"{title}\n    {xpath}\n    -> documents {result}")

    # Dynamic update: ViST labels are allocated on the fly, so insertion
    # and deletion work after the index is live (unlike RIST).
    late = index.add(make_purchase("boston", "newyork", ["intel"]))
    print(f"\nadded doc {late} after queries ran;",
          "Q2 now ->", index.query(queries["Q2  boston seller AND newyork buyer"]))
    index.remove(late)
    print(f"removed doc {late};",
          "Q2 back to ->", index.query(queries["Q2  boston seller AND newyork buyer"]))


if __name__ == "__main__":
    main()
