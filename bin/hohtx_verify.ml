(* hohtx_verify — typed, interprocedural, flow-sensitive typestate
   verifier for the hand-over-hand protocol.

   Consumes the compiler's .cmt typedtrees (so every name is a resolved
   [Path.t], not a guess) and checks the HOH protocol machine

     alloc → reserve → check → deref → hand-over → revoke → deferred-free

   on every path, including exception edges. See lib/verify for the
   analysis; DESIGN.md decision 14 for what is proved here vs checked
   dynamically by TxSan vs explored by DST.

   Usage:
     hohtx_verify [options] file.cmt ...
       --format text|github|json   diagnostic rendering (default: text,
                                   or github under $GITHUB_ACTIONS)
       --sarif FILE                also write SARIF 2.1.0 to FILE
       --expect FILE               self-test: compare diagnostics against
                                   expected "file.ml:LINE:rule-id" lines
       --expect-suppressions N     self-test: exactly N [@hohtx.trusted]
                                   uses must be seen
       --filter SUBSTR             only report diagnostics whose file
                                   path contains SUBSTR
       --quiet                     suppress the OK summary line

   Exit status: 0 clean (or expectations met), 1 violations (or
   expectation mismatch), 2 usage error. *)

module Vdiag = Verify.Vdiag
module Vsarif = Verify.Vsarif

let usage = "hohtx_verify [options] file.cmt ..."

let () =
  let format = ref (if Sys.getenv_opt "GITHUB_ACTIONS" <> None then "github" else "text") in
  let sarif = ref "" in
  let expect = ref "" in
  let expect_sups = ref (-1) in
  let filter = ref "" in
  let quiet = ref false in
  let files = ref [] in
  let spec =
    [
      ("--format", Arg.Symbol ([ "text"; "github"; "json" ], fun s -> format := s),
       " diagnostic output format");
      ("--sarif", Arg.Set_string sarif, "FILE write SARIF 2.1.0 report");
      ("--expect", Arg.Set_string expect,
       "FILE compare diagnostics against expected file:line:rule lines");
      ("--expect-suppressions", Arg.Set_int expect_sups,
       "N require exactly N [@hohtx.trusted] suppressions");
      ("--filter", Arg.Set_string filter,
       "SUBSTR only report diagnostics from matching files");
      ("--quiet", Arg.Set quiet, " suppress the OK summary line");
    ]
  in
  Arg.parse spec (fun f -> files := f :: !files) usage;
  let files = List.rev !files in
  if files = [] then begin
    prerr_endline "hohtx_verify: no .cmt files given";
    exit 2
  end;
  let diags, sups = Verify.run files in
  (* in --quiet --expect self-test mode only mismatches are interesting *)
  let print_diags = not (!quiet && !expect <> "") in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let diags =
    if !filter = "" then diags
    else List.filter (fun (d : Vdiag.t) -> contains d.Vdiag.file !filter) diags
  in
  (match !format with
  | "json" ->
      print_string (Vdiag.to_json diags sups);
      print_newline ()
  | "github" ->
      if print_diags then List.iter (Vdiag.pp_github stdout) diags;
      if diags = [] && not !quiet then
        Printf.printf "hohtx_verify: OK (%d files, %d suppressions)\n"
          (List.length files) (List.length sups)
  | _ ->
      if print_diags then
        List.iter (Vdiag.pp_text stdout) diags;
      if diags = [] && not !quiet then
        Printf.printf "hohtx_verify: OK (%d files, 0 diagnostics, %d \
                       [@hohtx.trusted] suppressions)\n"
          (List.length files) (List.length sups));
  List.iter
    (fun (s : Vdiag.suppression) ->
      if not !quiet && !format = "text" then
        Printf.printf "  trusted: %s:%d  (%s)\n" s.Vdiag.s_file s.Vdiag.s_line
          s.Vdiag.reason)
    sups;
  if !sarif <> "" then begin
    let oc = open_out !sarif in
    output_string oc (Vsarif.to_string diags sups);
    close_out oc
  end;
  let failures = ref [] in
  (if !expect <> "" then
     let expected = Vdiag.parse_expect_file !expect in
     failures := !failures @ Vdiag.check_expect expected diags);
  (if !expect_sups >= 0 && List.length sups <> !expect_sups then
     failures :=
       !failures
       @ [
           Printf.sprintf "expected %d suppressions, saw %d" !expect_sups
             (List.length sups);
         ]);
  if !failures <> [] then begin
    List.iter (fun f -> Printf.eprintf "hohtx_verify: %s\n" f) !failures;
    exit 1
  end;
  if !expect = "" && diags <> [] then exit 1
