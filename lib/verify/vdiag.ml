(* Diagnostics of hohtx_verify, the static checker.

   The --format json rendering is the hohtx-diag/1 schema. A diagnostic
   names the rule, the source position, the offending control-flow path,
   and a one-line repro command in the soak/DST convention. *)

type rule = {
  id : string;  (* stable SARIF ruleId, e.g. "reservation-leak" *)
  code : string;  (* short code, e.g. "HV004" *)
  summary : string;  (* one-line rule description *)
}

let rules : rule list =
  [
    { id = "trusted-without-reason"; code = "HV000";
      summary = "[@hohtx.trusted] suppression without a reason string" };
    { id = "deref-before-check"; code = "HV001";
      summary =
        "a carried pointer is dereferenced before the window re-checks \
         its reservation (Get)" };
    { id = "use-after-free"; code = "HV002";
      summary = "a freed (or disposed) node is dereferenced" };
    { id = "free-under-live-reservation"; code = "HV003";
      summary =
        "a node is freed/disposed without being revoked first, so a \
         concurrent reservation may still protect it" };
    { id = "reservation-leak"; code = "HV004";
      summary =
        "an exit path commits with a reservation neither released, \
         revoked, nor handed over" };
    { id = "double-revoke"; code = "HV005";
      summary = "a node already revoked/invalidated is revoked again" };
    { id = "non-deferred-free"; code = "HV006";
      summary =
        "Mempool.free runs inside a transaction, directly or through a \
         callee, without Tm.defer / a ~free closure, racing the window's \
         revoke; or a Tm.on_abort callback frees a node its transaction \
         did not allocate" };
    { id = "raw-access"; code = "HV009";
      summary =
        "non-transactional access (Tm.peek/Tm.poke) to a shared node's \
         payload inside a transaction" };
    { id = "site-label"; code = "HV010";
      summary =
        "a transaction entry (Tm.atomic, Tm.atomic_stamped, Hoh.apply, \
         Hoh.apply_stamped, Hoh.run) omits ?site, so its aborts and \
         sanitizer reports cannot name the operation" };
  ]

type t = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
  path : string list;
      (* branch decisions leading to the violation, outermost first *)
  fn : string;  (* enclosing function, for the message *)
}

type suppression = { s_file : string; s_line : int; reason : string }

let repro d =
  Printf.sprintf "dune build @verify   # or: --filter %s"
    (Filename.basename d.file)

let pp_text oc d =
  Printf.fprintf oc "%s:%d:%d: [%s] %s%s\n" d.file d.line d.col d.rule
    d.message
    (if d.fn = "" then "" else Printf.sprintf " (in %s)" d.fn);
  (match d.path with
  | [] -> ()
  | p ->
      Printf.fprintf oc "  path: %s\n" (String.concat " -> " p));
  Printf.fprintf oc "  repro: %s\n" (repro d)

let pp_github oc d =
  Printf.fprintf oc "::error file=%s,line=%d,col=%d::[%s] %s%s\n" d.file
    d.line d.col d.rule d.message
    (match d.path with
    | [] -> ""
    | p -> Printf.sprintf " (path: %s)" (String.concat " -> " p))

(* ---- hohtx-diag/1 JSON ---- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let diag_json d =
  Printf.sprintf
    "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"message\":\"%s\",\"path\":[%s],\"repro\":\"%s\"}"
    (json_escape d.file) d.line d.col (json_escape d.rule)
    (json_escape d.message)
    (String.concat ","
       (List.map (fun p -> "\"" ^ json_escape p ^ "\"") d.path))
    (json_escape (repro d))

let to_json (diags : t list) (sups : suppression list) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "{\"schema\":\"hohtx-diag/1\",\"tool\":\"hohtx_verify\",";
  Buffer.add_string b
    (Printf.sprintf "\"diagnostics\":[%s],"
       (String.concat "," (List.map diag_json diags)));
  Buffer.add_string b
    (Printf.sprintf "\"suppressions\":[%s],"
       (String.concat ","
          (List.map
             (fun s ->
               Printf.sprintf
                 "{\"file\":\"%s\",\"line\":%d,\"reason\":\"%s\"}"
                 (json_escape s.s_file) s.s_line (json_escape s.reason))
             sups)));
  Buffer.add_string b
    (Printf.sprintf "\"counts\":{\"diagnostics\":%d,\"suppressions\":%d}}"
       (List.length diags) (List.length sups));
  Buffer.contents b

(* ---- --expect files: lines of "file.ml:LINE:rule-id" ---- *)

let parse_expect_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line ->
            let line = String.trim line in
            if line = "" || String.length line > 0 && line.[0] = '#' then
              go acc
            else
              (match String.split_on_char ':' line with
              | [ f; l; r ] -> go ((f, int_of_string l, r) :: acc)
              | _ ->
                  failwith
                    (Printf.sprintf "%s: bad expect line %S" path line))
      in
      go [])

let expect_key d = (Filename.basename d.file, d.line, d.rule)

(* Compare found diagnostics against an expectation multiset; returns the
   mismatches as human-readable lines (empty = exact match). Counted, not
   set-membership: a rule regressing from firing twice to once on the same
   line must be caught, and duplicate expect lines must be earned. *)
let check_expect expected diags =
  let found = List.map expect_key diags in
  let count k l = List.length (List.filter (( = ) k) l) in
  List.concat_map
    (fun ((f, l, r) as k) ->
      let want = count k expected and got = count k found in
      if got < want then
        [
          Printf.sprintf "missing expected %s:%d:%s (want %d, got %d)" f l
            r want got;
        ]
      else if got > want then
        [
          Printf.sprintf "unexpected %s:%d:%s (want %d, got %d)" f l r want
            got;
        ]
      else [])
    (List.sort_uniq compare (expected @ found))
