"""Write perfbench/reference.json from the toolkit in ./src.

    python3 perfbench/make_reference.py

The reference holds, for every document that any run seed can draw, the
digest of each check's (name, verdict, witness), and lists the
operations that fail on the commit it is taken from: its known defects.
A run reports checks whose digest differs as ``verdict_drift`` and is
correct only if it has no drift and no failure outside that list.
"""

import json

import docs
import run


def main():
    tk = run.load_toolkit()
    path = tk.workspace.corpus_path("walking_arrow.site")
    with open(path, encoding="utf-8") as fh:
        corpus_text = fh.read()
    all_docs = (docs.ladder_docs()
                + docs.site_docs(range(docs.SITE_POOL), tk.generate.generate,
                                 corpus_text)
                + docs.refute_docs(range(docs.MUTANT_POOL),
                                   tk.generate.generate))
    for doc in all_docs:
        docs.add_cross_checks(doc)
    lines, failures = {}, []
    for doc in all_docs:
        _, outcomes, _ = run.run_doc(tk, doc)
        lines[doc.name] = run.digest_line(doc, outcomes)
        failures += ["%s:%s" % (doc.name, op)
                     for op in run.judge(doc, outcomes)]
    for op in failures:
        print("known failure: %s" % op)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"known_failures": failures, "docs": lines}, fh,
                  indent=0, sort_keys=True)
        fh.write("\n")
    print("wrote %s: %d documents, %d known failures"
          % (run.REFERENCE, len(lines), len(failures)))


if __name__ == "__main__":
    main()
