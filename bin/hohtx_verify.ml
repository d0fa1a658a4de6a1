(* hohtx_verify — typed, interprocedural, flow-sensitive typestate
   verifier for the hand-over-hand protocol.

   Consumes the compiler's .cmt typedtrees (so every name is a resolved
   [Path.t], not a guess) and checks the HOH protocol machine

     alloc → reserve → check → deref → hand-over → revoke → deferred-free

   on every path, including exception edges. See lib/verify for the
   analysis; DESIGN.md decision 14 for what is proved here vs held by the
   type checker vs checked dynamically by TxSan vs explored by DST.

   Usage:
     hohtx_verify [options] file.cmt ...
       --format text|github        diagnostic rendering (default: text,
                                   or github under $GITHUB_ACTIONS)
       --sarif FILE                also write SARIF 2.1.0 to FILE
       --expect FILE               self-test: compare diagnostics against
                                   expected "file.ml:LINE:rule-id" lines
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
  let filter = ref "" in
  let quiet = ref false in
  let files = ref [] in
  let spec =
    [
      ("--format", Arg.Symbol ([ "text"; "github" ], fun s -> format := s),
       " diagnostic output format");
      ("--sarif", Arg.Set_string sarif, "FILE write SARIF 2.1.0 report");
      ("--expect", Arg.Set_string expect,
       "FILE compare diagnostics against expected file:line:rule lines");
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
  let diags = Verify.run files in
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
  if print_diags then
    List.iter
      ((if !format = "github" then Vdiag.pp_github else Vdiag.pp_text) stdout)
      diags;
  if diags = [] && not !quiet then
    Printf.printf "hohtx_verify: OK (%d files, 0 diagnostics)\n"
      (List.length files);
  if !sarif <> "" then Telemetry.Json.to_file !sarif (Vsarif.of_diags diags);
  if !expect <> "" then begin
    let failures =
      Vdiag.check_expect (Vdiag.parse_expect_file !expect) diags
    in
    if failures <> [] then begin
      List.iter (fun f -> Printf.eprintf "hohtx_verify: %s\n" f) failures;
      exit 1
    end
  end
  else if diags <> [] then exit 1
