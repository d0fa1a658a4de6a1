(* SARIF 2.1.0 emission for GitHub code-scanning upload.

   Hand-rolled (the repo deliberately avoids JSON dependencies; cf.
   lib/telemetry/tel_json.ml). One run, one driver, the rule table from
   Vdiag, each diagnostic as a "result" with its path trace rendered into
   the message, and [@hohtx.trusted] uses reported as suppressed notes so
   the code-scanning UI shows where the verifier was waved through. *)

let esc = Vdiag.json_escape

let rule_json (r : Vdiag.rule) =
  Printf.sprintf
    "{\"id\":\"%s\",\"name\":\"%s\",\"shortDescription\":{\"text\":\"%s\"},\"defaultConfiguration\":{\"level\":\"error\"}}"
    (esc r.Vdiag.id) (esc r.Vdiag.code) (esc r.Vdiag.summary)

let location_json ~file ~line ~col =
  Printf.sprintf
    "{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}"
    (esc file) line (max 1 col)

let result_json (d : Vdiag.t) =
  let message =
    match d.Vdiag.path with
    | [] -> d.Vdiag.message
    | p ->
        Printf.sprintf "%s [path: %s]" d.Vdiag.message
          (String.concat " -> " p)
  in
  Printf.sprintf
    "{\"ruleId\":\"%s\",\"level\":\"error\",\"message\":{\"text\":\"%s\"},\"locations\":[%s]}"
    (esc d.Vdiag.rule) (esc message)
    (location_json ~file:d.Vdiag.file ~line:d.Vdiag.line ~col:(d.Vdiag.col + 1))

let suppression_json (s : Vdiag.suppression) =
  Printf.sprintf
    "{\"ruleId\":\"trusted-suppression\",\"level\":\"note\",\"message\":{\"text\":\"[@hohtx.trusted] %s\"},\"locations\":[%s],\"suppressions\":[{\"kind\":\"inSource\",\"justification\":\"%s\"}]}"
    (esc s.Vdiag.reason)
    (location_json ~file:s.Vdiag.s_file ~line:s.Vdiag.s_line ~col:1)
    (esc s.Vdiag.reason)

let to_string (diags : Vdiag.t list) (sups : Vdiag.suppression list) =
  let results =
    List.map result_json diags @ List.map suppression_json sups
  in
  String.concat ""
    [
      "{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",";
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{";
      "\"name\":\"hohtx_verify\",\"version\":\"1.0.0\",";
      "\"informationUri\":\"https://github.com/hohtx/hohtx\",";
      Printf.sprintf "\"rules\":[%s]}},"
        (String.concat ","
           (List.map rule_json Vdiag.rules
            @ [
                "{\"id\":\"trusted-suppression\",\"name\":\"HVSUP\",\"shortDescription\":{\"text\":\"[@hohtx.trusted] in-source suppression\"},\"defaultConfiguration\":{\"level\":\"note\"}}";
              ]));
      Printf.sprintf "\"results\":[%s]," (String.concat "," results);
      Printf.sprintf
        "\"properties\":{\"suppressionCount\":%d,\"diagnosticCount\":%d}}]}"
        (List.length sups) (List.length diags);
    ]
