-- Seeded-error fixture for `repro-bench --check`.
--
-- Each ;-separated statement is annotated with the exact diagnostic codes
-- the semantic checker must produce for it (see docs/semantic-analysis.md
-- for the catalogue).  Statements without an annotation must check clean.
-- CI fails if any statement produces more, fewer, or different codes.

-- expect: SEM001
DELETE FROM partz WHERE part_ref = 1;

-- expect: SEM002
UPDATE parts SET quantty = 0 WHERE part_ref >= 0 AND part_ref < 5;

-- expect: SEM003
SELECT supplier_id FROM parts
  JOIN suppliers ON parts.supplier_id = suppliers.supplier_id;

-- expect: SEM004
UPDATE parts SET quantity = 'lots' WHERE part_id = 1;

-- expect: SEM004
DELETE FROM parts WHERE status > 5;

-- expect: SEM005
UPDATE parts SET price = ABS(1, 2) WHERE part_id = 1;

-- expect: SEM005
INSERT INTO suppliers (supplier_id, supplier_name, region)
  VALUES (1, 'Initech');

-- expect: SEM006
UPDATE parts SET price = NOW() WHERE part_id = 1;

-- expect: SEM007
INSERT INTO parts (part_id, part_ref, part_no, status, quantity, price)
  VALUES (1000002, 1, 'PN-1', 'active', 2, 3.0);

-- expect: SEM008
DELETE FROM parts WHERE part_id + 1;

-- expect: SEM004, SEM009
UPDATE parts SET quantity = 1 / 0 WHERE part_id = 1;

-- An unknown table silences only the references that may be its columns:
-- those qualified by the known table are still checked.
-- expect: SEM001, SEM002, SEM004
SELECT p.no_such FROM parts p
  JOIN supplierz s ON p.supplier_id = s.x WHERE p.status > 5;

-- A well-formed statement: must produce no diagnostics at all.
UPDATE parts SET status = 'revised' WHERE part_ref >= 0 AND part_ref < 10;
