"""Why K contains no nontrivial normal subgroup, at finite-word scale.

For any essential word w there is an explicit conjugator: the anchor
beta of w's enumeration index.  The lift of beta walks out the zig-zag
ray to the island built for w; reading w there moves along the island's
edge-path instead of looping, so the lift of beta·w·beta^{-1} cannot
return to the base point.  Hence no conjugate-closed set of essential
words fits inside K.
"""

from earring import core_free_scan, midpoint_structure_check, witness_conjugator
from earring.words import format_word

for w in [(3,), (1,), (2, -1)]:
    cert = witness_conjugator(w)
    print(f"w = {format_word(w)!s:6} j = {cert.j:3} |beta| = {len(cert.beta):3} "
          f"endpoint = {format_word(cert.conjugate_endpoint.word)[:24]:26} "
          f"verdict = {cert.verdict}")

# The midpoint of the lift is exactly the island's anchor, and the middle
# segment follows the anchored edge-path without ever leaving the island.
cert = witness_conjugator((3,))
report = midpoint_structure_check(cert)
print("midpoint is anchor:", cert.midpoint.word == cert.beta)
print("middle segment structure ok:", report.ok,
      "| stays on island:", report.stays_on_island)
for letter, kind, at, agree in report.records:
    print(f"  letter {letter:3} {kind:4} -> {format_word(at.word)}  [{'ok' if agree else 'MISMATCH'}]")

# Sweep every essential word of small weight: each one gets a certificate.
scan = core_free_scan(4)
print(f"scan weight<=4: {scan.checked} certified, {scan.skipped} null words skipped, "
      f"{len(scan.failures)} failures")
in_k_values = sorted({e.in_k for e in scan.entries if e.essential})
print("K-membership values among inputs:", in_k_values,
      "(the witness works on members and non-members alike)")
