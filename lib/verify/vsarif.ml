(* SARIF 2.1.0 emission for GitHub code-scanning upload: one run, one
   driver, the rule table from Vdiag, each diagnostic as a "result" with
   its path trace rendered into the message. Built as a Telemetry.Json
   tree, the one JSON printer of the repo. *)

module Json = Telemetry.Json

let rule_json (r : Vdiag.rule) =
  Json.Obj
    [
      ("id", String r.Vdiag.id);
      ("name", String r.Vdiag.code);
      ("shortDescription", Obj [ ("text", String r.Vdiag.summary) ]);
      ("defaultConfiguration", Obj [ ("level", String "error") ]);
    ]

let result_json (d : Vdiag.t) =
  let message =
    match d.Vdiag.path with
    | [] -> d.Vdiag.message
    | p ->
        Printf.sprintf "%s [path: %s]" d.Vdiag.message
          (String.concat " -> " p)
  in
  let region =
    [
      ("startLine", Json.Int d.Vdiag.line);
      ("startColumn", Int (d.Vdiag.col + 1));
    ]
  in
  Json.Obj
    [
      ("ruleId", String d.Vdiag.rule);
      ("level", String "error");
      ("message", Obj [ ("text", String message) ]);
      ( "locations",
        List
          [
            Obj
              [
                ( "physicalLocation",
                  Obj
                    [
                      ( "artifactLocation",
                        Obj [ ("uri", String d.Vdiag.file) ] );
                      ("region", Obj region);
                    ] );
              ];
          ] );
    ]

let of_diags (diags : Vdiag.t list) =
  let driver =
    Json.Obj
      [
        ("name", String "hohtx_verify");
        ("version", String "1.0.0");
        ("informationUri", String "https://github.com/hohtx/hohtx");
        ("rules", List (List.map rule_json Vdiag.rules));
      ]
  in
  Json.Obj
    [
      ( "$schema",
        String
          "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
      );
      ("version", String "2.1.0");
      ( "runs",
        List
          [
            Obj
              [
                ("tool", Obj [ ("driver", driver) ]);
                ("results", List (List.map result_json diags));
                ( "properties",
                  Obj [ ("diagnosticCount", Int (List.length diags)) ] );
              ];
          ] );
    ]
