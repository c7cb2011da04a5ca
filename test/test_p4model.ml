(* Tests for the Tofino resource model (Table 6). *)

module R = P4model.Resources

let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 0.05)

let test_reproduces_table6 () =
  let u = R.estimate ~entries_per_switch:R.paper_config_entries in
  checkf "match crossbar" 7.2 u.R.match_crossbar;
  checkf "meter alu" 17.5 u.R.meter_alu;
  checkf "gateway" 25.0 u.R.gateway;
  checkf "tcam" 1.7 u.R.tcam;
  checkf "vliw" 10.0 u.R.vliw;
  (* Size-dependent resources within tolerance of the paper. *)
  checkb "sram close to 3.9%" true (Float.abs (u.R.sram -. 3.9) < 0.3);
  checkb "hash bits close to 4.7%" true (Float.abs (u.R.hash_bits -. 4.7) < 1.0)

let test_sram_monotone_in_entries () =
  let a = R.estimate ~entries_per_switch:1_000 in
  let b = R.estimate ~entries_per_switch:100_000 in
  checkb "more entries, more sram" true (b.R.sram > a.R.sram);
  checkb "more entries, more hash bits" true (b.R.hash_bits >= a.R.hash_bits)

let test_constants_independent_of_entries () =
  let a = R.estimate ~entries_per_switch:100 in
  let b = R.estimate ~entries_per_switch:100_000 in
  checkf "crossbar constant" a.R.match_crossbar b.R.match_crossbar;
  checkf "gateway constant" a.R.gateway b.R.gateway;
  checkf "vliw constant" a.R.vliw b.R.vliw

let test_bounds () =
  Alcotest.check_raises "negative"
    (Invalid_argument "Resources.estimate: negative entries") (fun () ->
      ignore (R.estimate ~entries_per_switch:(-1)));
  Alcotest.check_raises "beyond capacity"
    (Invalid_argument "Resources.estimate: exceeds per-switch capacity")
    (fun () -> ignore (R.estimate ~entries_per_switch:(R.max_entries + 1)))

let test_max_entries_fit () =
  let u = R.estimate ~entries_per_switch:R.max_entries in
  checkb "sram under 100%" true (u.R.sram < 100.0);
  checkb "hash under 100%" true (u.R.hash_bits < 100.0)

let test_rows_layout () =
  let u = R.estimate ~entries_per_switch:1024 in
  let rows = R.rows u in
  Alcotest.check (Alcotest.list Alcotest.string) "table 6 row order"
    [
      "Match Crossbar";
      "Meter ALU";
      "Gateway";
      "SRAM";
      "TCAM";
      "VLIW Instruction";
      "Hash Bits";
    ]
    (List.map fst rows)

let checkib = Alcotest.check Alcotest.int

(* Geometry bit costing: integer arithmetic with no rounding — the
   per-stage shares must re-sum to the whole exactly (the same
   consistency contract as the stage_estimate decomposition). *)
let test_geometry_bits_resum_exact () =
  let kinds = [ R.Classify; R.Lookup; R.Learn; R.Emit ] in
  List.iter
    (fun (slots, sketch, g) ->
      let total = R.geometry_bits ~slots ?sketch g in
      let sum =
        List.fold_left
          (fun acc k -> acc + R.stage_bits ~slots ?sketch g k)
          0 kinds
      in
      checkib (R.geometry_name g ^ " re-sums exactly") total sum)
    [
      (0, None, R.G_table 1);
      (96, None, R.G_table 1);
      (96, None, R.G_table 4);
      (96, None, R.G_assoc 4);
      (96, Some (R.sketch_of_slots 96), R.G_table 1);
      (1024, Some { R.rows = 4; width = 4096 }, R.G_table 2);
    ]

(* The one-way table is the direct-mapped baseline at 49 bits per
   line, and a 1-way LRU set collapses to it stage by stage; the
   frontier labels a one-way table "direct". *)
let test_geometry_bits_degenerate_collapse () =
  let kinds = [ R.Classify; R.Lookup; R.Learn; R.Emit ] in
  let slots = 128 in
  checkib "49 bits per direct line" (slots * 49)
    (R.geometry_bits ~slots (R.G_table 1));
  Alcotest.(check string) "one way is direct" "direct"
    (R.geometry_name (R.G_table 1));
  List.iter
    (fun g ->
      List.iter
        (fun k ->
          checkib
            (R.geometry_name g ^ " stage matches direct")
            (R.stage_bits ~slots (R.G_table 1) k)
            (R.stage_bits ~slots g k))
        kinds)
    [ R.G_assoc 1 ]

let test_geometry_bits_structure () =
  let slots = 64 in
  (* Tags + values in Lookup, metadata in Learn, nothing elsewhere. *)
  checkib "lookup holds tags+values" (slots * 48)
    (R.stage_bits ~slots (R.G_table 1) R.Lookup);
  checkib "learn holds the access bit" slots
    (R.stage_bits ~slots (R.G_table 1) R.Learn);
  checkib "classify holds no lines" 0
    (R.stage_bits ~slots (R.G_table 1) R.Classify);
  checkib "emit holds no lines" 0 (R.stage_bits ~slots (R.G_table 1) R.Emit);
  (* More ways cost the same SRAM at equal lines: their price is hash
     units, not bits. *)
  checkib "4 ways same bits as 1"
    (R.geometry_bits ~slots (R.G_table 1))
    (R.geometry_bits ~slots (R.G_table 4));
  (* LRU rank bits grow with associativity. *)
  checkib "4-way charges 2 rank bits" (slots * 2)
    (R.stage_bits ~slots (R.G_assoc 4) R.Learn);
  (* The sketch lands in Learn: rows * width * 4 bits. *)
  let sketch = { R.rows = 4; width = 256 } in
  checkib "sketch bits in learn"
    ((slots * 1) + (4 * 256 * 4))
    (R.stage_bits ~slots ~sketch (R.G_table 1) R.Learn);
  (* The sketch sizing rule TinyLFU filters are built with. *)
  let s = R.sketch_of_slots 96 in
  checkib "default rows" 4 s.R.rows;
  checkib "default width is next pow2 of 4*slots" 512 s.R.width

let test_geometry_bits_validation () =
  Alcotest.check_raises "negative slots"
    (Invalid_argument "Resources.stage_bits: negative slots") (fun () ->
      ignore (R.stage_bits ~slots:(-1) (R.G_table 1) R.Lookup));
  Alcotest.check_raises "zero ways"
    (Invalid_argument "Resources: assoc ways must be positive") (fun () ->
      ignore (R.geometry_bits ~slots:8 (R.G_assoc 0)));
  Alcotest.check_raises "zero table ways"
    (Invalid_argument "Resources: table ways must be positive") (fun () ->
      ignore (R.geometry_bits ~slots:8 (R.G_table 0)));
  Alcotest.check_raises "bad sketch"
    (Invalid_argument "Resources: sketch rows/width must be positive")
    (fun () ->
      ignore
        (R.stage_bits ~slots:8 ~sketch:{ R.rows = 0; width = 16 } (R.G_table 1)
           R.Learn))

let () =
  Alcotest.run "p4model"
    [
      ( "resources",
        [
          Alcotest.test_case "reproduces Table 6" `Quick test_reproduces_table6;
          Alcotest.test_case "monotone in entries" `Quick test_sram_monotone_in_entries;
          Alcotest.test_case "structure constants" `Quick test_constants_independent_of_entries;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "max entries fit" `Quick test_max_entries_fit;
          Alcotest.test_case "row layout" `Quick test_rows_layout;
        ] );
      ( "geometry_bits",
        [
          Alcotest.test_case "re-sums exactly" `Quick
            test_geometry_bits_resum_exact;
          Alcotest.test_case "degenerate collapse" `Quick
            test_geometry_bits_degenerate_collapse;
          Alcotest.test_case "stage structure" `Quick
            test_geometry_bits_structure;
          Alcotest.test_case "validation" `Quick test_geometry_bits_validation;
        ] );
    ]
